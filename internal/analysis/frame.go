package analysis

import (
	"fmt"
	"sort"
	"sync"

	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// TopKFingerprints caps how many per-fingerprint columns a frame carries.
// Real windows see tens of thousands of distinct fingerprints with a heavy
// head (§4); materializing a dense column per fingerprint would dwarf every
// other family, so the frame keeps the K highest-volume fingerprints and
// folds the tail into the FPOtherKey bucket. fp:* therefore still sums to
// the exact fingerprinted-connection total.
const TopKFingerprints = 32

// FPOtherKey is the fp: column absorbing every fingerprint outside the
// top K, keeping the family's wildcard sum exact.
const FPOtherKey = "other"

// FPID derives the stable 12-hex-digit column key for a fingerprint string.
// Raw fingerprints contain '|' and ',', which the query grammar rejects, so
// the fp: family is keyed by this FNV-1a-derived ID instead; Frame.FPNames
// maps IDs back to full strings for presentation.
func FPID(fp string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(fp); i++ {
		h ^= uint64(fp[i])
		h *= prime64
	}
	return fmt.Sprintf("%012x", h&(1<<48-1))
}

// Frame is a columnar, immutable snapshot of a notary.Aggregate: a sorted
// month axis plus one dense per-month column for every counter the analysis
// layer queries. It is built in a single pass over the aggregate and is the
// substrate every figure, scalar and impact metric evaluates against —
// instead of ten figure constructors each re-walking the per-month maps, the
// maps are walked once here and the queries become slice scans.
//
// Keyed columns (versions, classes, key exchanges, curves, extensions,
// TLS 1.3 variants) live in maps from key to a dense []int aligned with
// Months; a key absent from the map means the counter was zero everywhere.
// Derived columns that used to be recomputed per series — the negotiated
// suite-class totals of Figure 9 and the forward-secret key-exchange total —
// are classified once at build time.
//
// A Frame never mutates after NewFrame returns, so it is safe to share
// across goroutines and to cache: Generation records the aggregate
// generation it snapshotted, letting holders detect staleness while the
// aggregate keeps ingesting (the live-service read path).
type Frame struct {
	// Months is the sorted month axis; every column below has len(Months).
	Months []timeline.Month
	// index maps a month to its row, shared with every Series the frame
	// builds so Series.Value is O(1).
	index map[timeline.Month]int
	// generation is the aggregate generation this frame snapshotted.
	generation uint64
	// fingerprint hashes the frame's layout (generation, month axis, keyed
	// column sets), computed once at build time — the cheap revalidation
	// token for compiled plans (Plan.ValidFor).
	fingerprint uint64

	// planOnce/plans memoize compiled plans for the package's static
	// expressions (figure catalog, impact metrics, passive scalars), built
	// lazily on first catalog evaluation and keyed by expression identity.
	// Memoization is the only post-build write; it is guarded by the Once,
	// so the frame stays safe to share across goroutines.
	planOnce sync.Once
	plans    map[*Expr]*Plan

	// Denominators.
	Total       []int // all observed hellos
	Established []int // established connections

	// Negotiated parameters, one dense column per observed key.
	Version      map[registry.Version][]int
	Class        map[string][]int
	Kex          map[registry.KeyExchange][]int
	Curve        map[registry.CurveID][]int
	Extension    map[registry.ExtensionID][]int
	TLS13Variant map[registry.Version][]int

	// Counts holds one dense column per plain counter, indexed like
	// notary.Counters (Counts[i] is the column named notary.Counters[i].Name).
	Counts [][]int

	// Figure 5 relative-position accumulators, per suite class.
	PosSum   map[string][]float64
	PosCount map[string][]int

	// Fingerprint capability counts (Figure 4): distinct fingerprints per
	// month and how many of them advertise each class.
	FPTotal                      []int
	FPRC4, FPDES, FP3DES, FPAEAD []int

	// Fingerprint attribution (§4 / Table 2). FPConns is the per-month
	// volume of fingerprint-bearing connections (the fp: family denominator,
	// named column "fp-conns"). FPCol carries one dense volume column per
	// top-K fingerprint — ranked by whole-window volume, keyed by FPID —
	// plus the FPOtherKey bucket absorbing everything past the cap, so the
	// family stays dense no matter how many distinct fingerprints the window
	// saw. FPNames maps each top-K FPID back to its full fingerprint string.
	// Agent holds attributed volume per client class (from the aggregate's
	// classifier), keyed by the clientdb class name.
	FPConns    []int
	FPCol      map[string][]int
	FPNames    map[string]string
	Agent      map[string][]int
	fpDistinct int

	// Build-time suite classification (Figure 9): negotiated connections per
	// AEAD family, from one SuiteByID pass over the union of observed suites.
	NegAEAD, NegGCM128, NegGCM256, NegChaCha []int

	// KexForwardSecret sums the forward-secret key exchanges (§6.3.1),
	// classified once at build time.
	KexForwardSecret []int
}

// negClass is the build-time classification of one negotiated suite ID.
type negClass uint8

const (
	negAEAD negClass = 1 << iota
	negGCM128
	negGCM256
	negChaCha
)

// classifyNegSuite resolves one suite ID's figure classes. Each distinct ID
// is classified once per frame build; the result is cached in NewFrame.
func classifyNegSuite(id uint16) negClass {
	s, ok := registry.SuiteByID(id)
	if !ok {
		return 0
	}
	var c negClass
	if s.IsAEAD() {
		c |= negAEAD
	}
	if s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES128 {
		c |= negGCM128
	}
	if s.Mode == registry.ModeGCM && s.Cipher == registry.CipherAES256 {
		c |= negGCM256
	}
	if s.Cipher == registry.CipherChaCha20 {
		c |= negChaCha
	}
	return c
}

// col returns the dense column for key k in m, allocating it on first use.
func col[K comparable](m map[K][]int, k K, n int) []int {
	c, ok := m[k]
	if !ok {
		c = make([]int, n)
		m[k] = c
	}
	return c
}

// NewFrame snapshots agg into a columnar frame in one chronological pass.
func NewFrame(agg *notary.Aggregate) *Frame {
	n := agg.NumMonths()
	ints := func() []int { return make([]int, n) }
	f := &Frame{
		Months:     make([]timeline.Month, 0, n),
		index:      make(map[timeline.Month]int, n),
		generation: agg.Generation(),

		Total:       ints(),
		Established: ints(),

		Version:      make(map[registry.Version][]int),
		Class:        make(map[string][]int),
		Kex:          make(map[registry.KeyExchange][]int),
		Curve:        make(map[registry.CurveID][]int),
		Extension:    make(map[registry.ExtensionID][]int),
		TLS13Variant: make(map[registry.Version][]int),

		Counts: make([][]int, len(notary.Counters)),

		PosSum:   make(map[string][]float64),
		PosCount: make(map[string][]int),

		FPTotal: ints(),
		FPRC4:   ints(), FPDES: ints(), FP3DES: ints(), FPAEAD: ints(),

		FPConns: ints(),
		FPCol:   make(map[string][]int),
		FPNames: make(map[string]string),
		Agent:   make(map[string][]int),

		NegAEAD: ints(), NegGCM128: ints(), NegGCM256: ints(), NegChaCha: ints(),

		KexForwardSecret: ints(),
	}

	counts := make([]int, len(notary.Counters)*n)
	for j := range f.Counts {
		f.Counts[j] = counts[j*n : (j+1)*n : (j+1)*n]
	}

	suiteClasses := make(map[uint16]negClass)
	fpVols := make(map[string]int)         // whole-window volume per fingerprint
	fpRows := make([]map[string]int, 0, n) // per-row ByFingerprint, aligned with Months
	row := 0
	agg.EachMonth(func(ms *notary.MonthStats) {
		i := row
		row++
		f.Months = append(f.Months, ms.Month)
		f.index[ms.Month] = i

		f.Total[i] = ms.Total
		f.Established[i] = ms.Established

		for v, c := range ms.ByVersion {
			col(f.Version, v, n)[i] = c
		}
		for cl, c := range ms.ByClass {
			col(f.Class, cl, n)[i] = c
		}
		for k, c := range ms.ByKex {
			col(f.Kex, k, n)[i] = c
			if k.ForwardSecret() {
				f.KexForwardSecret[i] += c
			}
		}
		for cv, c := range ms.ByCurve {
			col(f.Curve, cv, n)[i] = c
		}
		for e, c := range ms.ByExtension {
			col(f.Extension, e, n)[i] = c
		}
		for v, c := range ms.TLS13Variant {
			col(f.TLS13Variant, v, n)[i] = c
		}

		for j, c := range notary.Counters {
			f.Counts[j][i] = *c.Field(ms)
		}

		for cl, s := range ms.PosSum {
			c, ok := f.PosSum[cl]
			if !ok {
				c = make([]float64, n)
				f.PosSum[cl] = c
			}
			c[i] = s
		}
		for cl, cnt := range ms.PosCount {
			col(f.PosCount, cl, n)[i] = cnt
		}

		fpRows = append(fpRows, ms.ByFingerprint)
		for fp, c := range ms.ByFingerprint {
			fpVols[fp] += c
			f.FPConns[i] += c
		}
		for class, c := range ms.ByClientClass {
			col(f.Agent, class, n)[i] = c
		}

		for _, caps := range ms.FPs {
			f.FPTotal[i]++
			if caps.RC4 {
				f.FPRC4[i]++
			}
			if caps.DES {
				f.FPDES[i]++
			}
			if caps.TDES {
				f.FP3DES[i]++
			}
			if caps.AEAD {
				f.FPAEAD[i]++
			}
		}

		for id, c := range ms.BySuite {
			nc, seen := suiteClasses[id]
			if !seen {
				nc = classifyNegSuite(id)
				suiteClasses[id] = nc
			}
			if nc&negAEAD != 0 {
				f.NegAEAD[i] += c
			}
			if nc&negGCM128 != 0 {
				f.NegGCM128[i] += c
			}
			if nc&negGCM256 != 0 {
				f.NegGCM256[i] += c
			}
			if nc&negChaCha != 0 {
				f.NegChaCha[i] += c
			}
		}
	})
	f.buildFPColumns(fpVols, fpRows, n)
	f.fingerprint = f.computeFingerprint()
	return f
}

// buildFPColumns materializes the fp: family from the per-month volumes
// collected during the aggregate pass: rank all fingerprints by whole-window
// volume (ties broken by fingerprint string, so the column set is fully
// deterministic), give the top K their own dense columns keyed by FPID, and
// fold everything past the cap into the FPOtherKey bucket.
func (f *Frame) buildFPColumns(fpVols map[string]int, fpRows []map[string]int, n int) {
	f.fpDistinct = len(fpVols)
	if len(fpVols) == 0 {
		return
	}
	ranked := make([]string, 0, len(fpVols))
	for fp := range fpVols {
		ranked = append(ranked, fp)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if fpVols[ranked[i]] != fpVols[ranked[j]] {
			return fpVols[ranked[i]] > fpVols[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	top := make(map[string]string, TopKFingerprints) // fingerprint -> column key
	for r, fp := range ranked {
		if r >= TopKFingerprints {
			break
		}
		id := FPID(fp)
		top[fp] = id
		f.FPNames[id] = fp
	}
	for i, byFP := range fpRows {
		for fp, c := range byFP {
			if id, ok := top[fp]; ok {
				col(f.FPCol, id, n)[i] += c
			} else {
				col(f.FPCol, FPOtherKey, n)[i] += c
			}
		}
	}
}

// FingerprintGauges reports the fp: family's shape for observability:
// distinct fingerprints in the window, the column cap, and the share of
// fingerprinted volume folded into the FPOtherKey bucket (percent).
func (f *Frame) FingerprintGauges() (distinct, topK int, otherShare float64) {
	if total := sumCol(f.FPConns); total > 0 {
		otherShare = 100 * float64(sumCol(f.FPCol[FPOtherKey])) / float64(total)
	}
	return f.fpDistinct, TopKFingerprints, otherShare
}

// computeFingerprint hashes the layout a compiled plan binds to: the
// generation, the month axis, and how many columns each keyed family holds.
// Equal generations within one study imply equal content (generations count
// ingested records), so an equal fingerprint means a plan's bound columns
// hold the same values. FNV-1a, O(months + families).
func (f *Frame) computeFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(f.generation)
	mix(uint64(len(f.Months)))
	for _, m := range f.Months {
		mix(uint64(m.Index()))
	}
	mix(uint64(len(f.Version)))
	mix(uint64(len(f.Class)))
	mix(uint64(len(f.Kex)))
	mix(uint64(len(f.Curve)))
	mix(uint64(len(f.Extension)))
	mix(uint64(len(f.TLS13Variant)))
	mix(uint64(len(f.PosSum)))
	mix(uint64(len(f.PosCount)))
	mix(uint64(len(f.FPCol)))
	mix(uint64(len(f.Agent)))
	return h
}

// Fingerprint returns the frame's layout fingerprint (see Plan.ValidFor).
func (f *Frame) Fingerprint() uint64 { return f.fingerprint }

// sharedPlans returns the memoized compiled plans for the package's static
// expressions — every catalog metric, impact metric and passive scalar —
// compiling them on first use. Static expressions cannot fail compilation
// (they are validated at package init), so a failure here is a programming
// error.
func (f *Frame) sharedPlans() map[*Expr]*Plan {
	f.planOnce.Do(func() {
		plans := make(map[*Expr]*Plan, 64)
		add := func(e *Expr) {
			p, err := Compile(e, f)
			if err != nil {
				panic("analysis: static expression failed to compile: " + err.Error())
			}
			plans[e] = p
		}
		for _, spec := range catalog {
			for _, m := range spec.Metrics {
				add(m.Expr)
			}
		}
		for _, im := range impactMetrics {
			add(im.expr)
		}
		for _, s := range passiveScalarSpecs {
			add(s.Expr)
		}
		for _, e := range conditionalScalarExprs {
			add(e)
		}
		for _, e := range table2Exprs {
			add(e)
		}
		f.plans = plans
	})
	return f.plans
}

// planFor returns the pre-compiled plan for one of the package's static
// expressions, nil for a foreign expression.
func (f *Frame) planFor(e *Expr) *Plan { return f.sharedPlans()[e] }

// Len returns the number of months on the frame's axis.
func (f *Frame) Len() int { return len(f.Months) }

// Generation returns the aggregate generation this frame snapshotted;
// compare against Aggregate.Generation to detect staleness.
func (f *Frame) Generation() uint64 { return f.generation }

// Row returns the row index of month m, ok=false when the month is outside
// the frame.
func (f *Frame) Row(m timeline.Month) (int, bool) {
	i, ok := f.index[m]
	return i, ok
}

// at reads column c at row i, treating a nil (never-observed) column as 0.
func at(c []int, i int) int {
	if c == nil {
		return 0
	}
	return c[i]
}

// pctAt returns 100·num/den at row i with the figure convention that an
// empty denominator yields 0. A negative row (month outside the frame) also
// yields 0, matching the old nil-MonthStats behaviour.
func pctAt(num, den []int, i int) float64 {
	if i < 0 || at(den, i) == 0 {
		return 0
	}
	return 100 * float64(at(num, i)) / float64(at(den, i))
}

// sumCol returns the sum of a column, 0 for nil.
func sumCol(c []int) int {
	n := 0
	for _, v := range c {
		n += v
	}
	return n
}
