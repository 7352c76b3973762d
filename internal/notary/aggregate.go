package notary

import (
	"sort"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

func timeMonth(m int) time.Month { return time.Month(m) }

// MonthStats accumulates everything the paper's figures need for one
// calendar month. All percentage series in the figure renderers derive from
// these counters.
type MonthStats struct {
	Month timeline.Month

	Total       int
	Established int

	// Negotiated parameters (established connections only).
	ByVersion map[registry.Version]int // canonical versions
	ByClass   map[string]int           // AEAD / CBC / RC4 / other
	ByKex     map[registry.KeyExchange]int
	BySuite   map[uint16]int
	ByCurve   map[registry.CurveID]int

	// Client advertisement counters (all observed hellos).
	AdvRC4, AdvDES, Adv3DES, AdvAEAD  int
	AdvExport, AdvAnon, AdvNULL       int
	AdvAESGCM128, AdvAESGCM256        int
	AdvChaCha, AdvCCM                 int
	AdvTLS13                          int
	TLS13Variant                      map[registry.Version]int
	OffersHeartbeatN, HeartbeatAckN   int
	NULLNegotiated, AnonNegotiated    int
	ExportNegotiated, UnofferedChoice int
	SSLv2Hellos                       int

	// Position sums for Figure 5: relative position (0..1) of the first
	// suite of each class in client lists, summed; denominators per class.
	PosSum   map[string]float64
	PosCount map[string]int

	// ByExtension counts connections advertising each extension (GREASE
	// stripped) — the §9 deployment-tracking data (renegotiation_info,
	// encrypt_then_mac, ...).
	ByExtension map[registry.ExtensionID]int

	// Distinct fingerprints and their capability flags (Figure 4).
	FPs map[string]*FPCaps

	// Connections per fingerprint (§4 attribution). Unlike FPs (distinct
	// fingerprints + capabilities), this is the per-month volume counter the
	// fp: query family reads.
	ByFingerprint map[string]int

	// Connections per attributed client class (Table 2), keyed by the
	// clientdb class name. Only filled when the owning aggregate has a
	// Classifier; unattributed fingerprints count nowhere.
	ByClientClass map[string]int
}

// FPCaps records the suite classes a fingerprint's cipher list contains.
type FPCaps struct {
	RC4, DES, TDES, AEAD, NULLc, Anon, Export bool
	Count                                     int
}

// newMonthStats allocates the counter maps.
func newMonthStats(m timeline.Month) *MonthStats {
	return &MonthStats{
		Month:         m,
		ByVersion:     make(map[registry.Version]int),
		ByClass:       make(map[string]int),
		ByKex:         make(map[registry.KeyExchange]int),
		BySuite:       make(map[uint16]int),
		ByCurve:       make(map[registry.CurveID]int),
		TLS13Variant:  make(map[registry.Version]int),
		ByExtension:   make(map[registry.ExtensionID]int),
		PosSum:        make(map[string]float64),
		PosCount:      make(map[string]int),
		FPs:           make(map[string]*FPCaps),
		ByFingerprint: make(map[string]int),
		ByClientClass: make(map[string]int),
	}
}

// Pct returns 100·n/Total, 0 for empty months.
func (ms *MonthStats) Pct(n int) float64 {
	if ms.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.Total)
}

// PctEstablished returns 100·n/Established.
func (ms *MonthStats) PctEstablished(n int) float64 {
	if ms.Established == 0 {
		return 0
	}
	return 100 * float64(n) / float64(ms.Established)
}

// Classifier attributes a fingerprint to a client class (Table 2). It is an
// interface — not a concrete DB — because internal/fingerprint already
// imports notary; the fingerprint.DB satisfies it from the other side of the
// dependency edge.
//
// The method must be pure with respect to aggregate content: two aggregates
// built from the same records under the same classifier must be equal, so
// Merge never re-classifies.
type Classifier interface {
	// ClassOf returns the client-class name for a fingerprint string, or
	// ok=false when the fingerprint is not in the database.
	ClassOf(fp string) (class string, ok bool)
}

// Aggregate is a streaming monthly aggregator: feed it Records in any order
// and read per-month statistics back.
type Aggregate struct {
	months map[timeline.Month]*MonthStats
	// FP lifetime tracking for §4.1.
	fpFirst, fpLast map[string]timeline.Date
	fpConns         map[string]int64
	// classifier attributes fingerprints to client classes at Add time. It
	// is configuration, not content: Merge ignores the donor's classifier,
	// and equality of aggregate *content* is unaffected by it (ByClientClass
	// counters are content; the classifier that produced them is not
	// serialized).
	classifier Classifier
	// generation counts ingested records: Add increments it and Merge folds
	// the donor's count in. Snapshot consumers compare it to detect
	// staleness without hashing the maps; because it tracks content rather
	// than call counts, aggregates with equal content built by any sharding
	// of the same stream also have equal generations (the merge property
	// tests rely on that).
	generation uint64
}

// NewAggregate returns an empty aggregator.
func NewAggregate() *Aggregate {
	return &Aggregate{
		months:  make(map[timeline.Month]*MonthStats),
		fpFirst: make(map[string]timeline.Date),
		fpLast:  make(map[string]timeline.Date),
		fpConns: make(map[string]int64),
	}
}

// SetClassifier installs (or clears, with nil) the fingerprint→class
// attribution used by Add. Install it before ingesting: records added while
// no classifier is set are never re-attributed.
func (a *Aggregate) SetClassifier(c Classifier) { a.classifier = c }

// Classifier returns the installed classifier, nil when attribution is off.
func (a *Aggregate) Classifier() Classifier { return a.classifier }

// Observe ingests one record, making *Aggregate a Sink. Add copies
// everything it keeps (counters, strings, dates — never slices), so pooled
// records may be reclaimed as soon as the call returns.
func (a *Aggregate) Observe(r *Record) error {
	a.Add(r)
	return nil
}

// Close is a no-op: an aggregate buffers nothing.
func (a *Aggregate) Close() error { return nil }

// Add ingests one record.
func (a *Aggregate) Add(r *Record) {
	a.generation++
	m := timeline.MonthOf(r.Date)
	ms, ok := a.months[m]
	if !ok {
		ms = newMonthStats(m)
		a.months[m] = ms
	}
	ms.Total++
	if r.SSLv2Hello {
		ms.SSLv2Hellos++
	}

	// Advertisement counters, GREASE-stripped. One dense-table pass over the
	// list replaces the ~15 predicate rescans this block used to make.
	suites := registry.StripGREASE16(r.ClientSuites)
	scan := registry.ScanSuites(suites)
	for _, c := range Counters {
		if scan.Bits.Has(c.Class) {
			(*c.Field(ms))++
		}
	}
	if r.SupportsTLS13() {
		ms.AdvTLS13++
		if v := r.AdvertisedTLS13Variant(); v != 0 {
			ms.TLS13Variant[v]++
		}
	}
	if r.OffersHeartbeat {
		ms.OffersHeartbeatN++
	}
	for _, e := range registry.StripGREASEExt(r.ClientExtensions) {
		ms.ByExtension[e]++
	}

	// Figure 5 positions, from the first-index side of the same pass.
	if n := len(suites); n > 1 {
		for _, pc := range positionClasses {
			if idx := scan.FirstIndex(pc.bit); idx >= 0 {
				ms.PosSum[pc.name] += float64(idx) / float64(n-1)
				ms.PosCount[pc.name]++
			}
		}
	}

	// Fingerprint capabilities.
	if r.Fingerprint != "" {
		caps, ok := ms.FPs[r.Fingerprint]
		if !ok {
			caps = &FPCaps{
				RC4:    scan.Bits.Has(registry.ClassRC4),
				DES:    scan.Bits.Has(registry.ClassDES),
				TDES:   scan.Bits.Has(registry.Class3DES),
				AEAD:   scan.Bits.Has(registry.ClassAEAD),
				NULLc:  scan.Bits.Has(registry.ClassNULL),
				Anon:   scan.Bits.Has(registry.ClassAnon),
				Export: scan.Bits.Has(registry.ClassExport),
			}
			ms.FPs[r.Fingerprint] = caps
		}
		caps.Count++
		if _, seen := a.fpFirst[r.Fingerprint]; !seen {
			a.fpFirst[r.Fingerprint] = r.Date
			a.fpLast[r.Fingerprint] = r.Date
		} else {
			if r.Date.After(a.fpLast[r.Fingerprint]) {
				a.fpLast[r.Fingerprint] = r.Date
			}
			if a.fpFirst[r.Fingerprint].After(r.Date) {
				a.fpFirst[r.Fingerprint] = r.Date
			}
		}
		a.fpConns[r.Fingerprint]++
		ms.ByFingerprint[r.Fingerprint]++
		if a.classifier != nil {
			if class, ok := a.classifier.ClassOf(r.Fingerprint); ok {
				ms.ByClientClass[class]++
			}
		}
	}

	// Negotiated side.
	if !r.Established {
		return
	}
	ms.Established++
	ms.ByVersion[r.Version.Canonical()]++
	if s, ok := registry.SuiteByID(r.Suite); ok {
		ms.ByClass[s.TrafficClass()]++
		ms.ByKex[s.Kex]++
		ms.BySuite[r.Suite]++
		if s.IsNULLCipher() {
			ms.NULLNegotiated++
		}
		if s.IsAnon() {
			ms.AnonNegotiated++
		}
		if s.IsExport() {
			ms.ExportNegotiated++
		}
	}
	if r.Curve != 0 {
		ms.ByCurve[r.Curve]++
	}
	if r.HeartbeatAck {
		ms.HeartbeatAckN++
	}
	if r.SuiteUnoffer {
		ms.UnofferedChoice++
	}
}

// positionClasses are the Figure 5 suite classes.
var positionClasses = []struct {
	name string
	bit  registry.ClassBits
}{
	{"AEAD", registry.ClassAEAD},
	{"CBC", registry.ClassCBC},
	{"RC4", registry.ClassRC4},
	{"DES", registry.ClassDES},
	{"3DES", registry.Class3DES},
}

// merge folds o's counters into ms. Both must describe the same month.
func (ms *MonthStats) merge(o *MonthStats) {
	ms.Total += o.Total
	ms.Established += o.Established
	for _, c := range Counters {
		*c.Field(ms) += *c.Field(o)
	}
	addInto(ms.ByVersion, o.ByVersion)
	addInto(ms.ByClass, o.ByClass)
	addInto(ms.ByKex, o.ByKex)
	addInto(ms.BySuite, o.BySuite)
	addInto(ms.ByCurve, o.ByCurve)
	addInto(ms.TLS13Variant, o.TLS13Variant)
	addInto(ms.ByExtension, o.ByExtension)
	addInto(ms.PosSum, o.PosSum)
	addInto(ms.PosCount, o.PosCount)
	addInto(ms.ByFingerprint, o.ByFingerprint)
	addInto(ms.ByClientClass, o.ByClientClass)
	for fp, oc := range o.FPs {
		c, ok := ms.FPs[fp]
		if !ok {
			cp := *oc
			ms.FPs[fp] = &cp
			continue
		}
		c.Count += oc.Count
		// A fingerprint hashes the cipher list, so capability flags agree
		// across shards; OR keeps merge closed under hand-built inputs.
		c.RC4 = c.RC4 || oc.RC4
		c.DES = c.DES || oc.DES
		c.TDES = c.TDES || oc.TDES
		c.AEAD = c.AEAD || oc.AEAD
		c.NULLc = c.NULLc || oc.NULLc
		c.Anon = c.Anon || oc.Anon
		c.Export = c.Export || oc.Export
	}
}

// addInto adds every entry of src to dst.
func addInto[K comparable, V int | float64](dst, src map[K]V) {
	for k, v := range src {
		dst[k] += v
	}
}

// Merge folds other into a, so that merging aggregates built from any
// partition of a record stream yields the same content as feeding the whole
// stream to one Aggregate. It is the combine step of the sharded simulation
// pipeline. other is not modified, but the receiving aggregate deep-copies
// everything it keeps, so other may be discarded or reused freely.
func (a *Aggregate) Merge(other *Aggregate) {
	a.generation += other.generation
	for m, oms := range other.months {
		ms, ok := a.months[m]
		if !ok {
			ms = newMonthStats(m)
			a.months[m] = ms
		}
		ms.merge(oms)
	}
	for fp, first := range other.fpFirst {
		if cur, seen := a.fpFirst[fp]; !seen || cur.After(first) {
			a.fpFirst[fp] = first
		}
	}
	for fp, last := range other.fpLast {
		if cur, seen := a.fpLast[fp]; !seen || last.After(cur) {
			a.fpLast[fp] = last
		}
	}
	for fp, n := range other.fpConns {
		a.fpConns[fp] += n
	}
}

// Months returns the observed months in chronological order.
func (a *Aggregate) Months() []timeline.Month {
	out := make([]timeline.Month, 0, len(a.months))
	for m := range a.months {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Stats returns the stats for month m, or nil when unobserved.
func (a *Aggregate) Stats(m timeline.Month) *MonthStats { return a.months[m] }

// NumMonths returns the number of observed months.
func (a *Aggregate) NumMonths() int { return len(a.months) }

// Generation returns a counter that changes whenever records are ingested
// (directly via Add or folded in via Merge). A snapshot built from the
// aggregate can record the generation it saw and later detect that the
// aggregate has moved on — the cheap staleness check the columnar analysis
// frame and any future live-service mode rely on.
func (a *Aggregate) Generation() uint64 { return a.generation }

// EachMonth calls fn once per observed month in chronological order. It is
// the snapshot-iteration API: a consumer can materialise every counter in
// one pass without touching the aggregate's internal month map.
func (a *Aggregate) EachMonth(fn func(*MonthStats)) {
	for _, m := range a.Months() {
		fn(a.months[m])
	}
}

// UpdateMonth applies fn to month m's stats, creating the month if it was
// never observed, and advances the generation by records — the number of
// underlying observations fn represents. It exists for studies whose data
// arrives pre-aggregated (active scan campaigns report per-date summary
// counters, not individual records) so they can populate an Aggregate and
// ride the same Frame/query machinery as record streams.
func (a *Aggregate) UpdateMonth(m timeline.Month, records uint64, fn func(*MonthStats)) {
	ms, ok := a.months[m]
	if !ok {
		ms = newMonthStats(m)
		a.months[m] = ms
	}
	fn(ms)
	a.generation += records
}

// TotalRecords sums Total over all months.
func (a *Aggregate) TotalRecords() int {
	n := 0
	for _, ms := range a.months {
		n += ms.Total
	}
	return n
}

// FPDuration describes one fingerprint's observed lifetime (§4.1).
type FPDuration struct {
	Fingerprint string
	First, Last timeline.Date
	Days        int // inclusive duration: 1 for a single-day fingerprint
	Connections int64
}

// FPDurations returns lifetime stats for every fingerprint seen.
func (a *Aggregate) FPDurations() []FPDuration {
	out := make([]FPDuration, 0, len(a.fpFirst))
	for fp, first := range a.fpFirst {
		last := a.fpLast[fp]
		out = append(out, FPDuration{
			Fingerprint: fp,
			First:       first,
			Last:        last,
			Days:        last.DaysSince(first) + 1,
			Connections: a.fpConns[fp],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}
