package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/clientdb"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Expr is a serializable metric expression over a Frame — the query API the
// figure catalog, the ad-hoc CLI/service queries and the impact metrics all
// share. Unlike the closure-based evaluators it replaces, an Expr is pure
// data: it marshals to JSON, round-trips through the compact text grammar
// (ParseQuery / String) and is evaluated by compiling it into a Plan. The
// tree-walking interpreter below (Frame.Query, EvalSeries, EvalScalar) is
// the reference the compiled plans are tested and fuzzed against.
//
// An expression has one of three kinds:
//
//   - column: a dense per-month integer counter — a named frame column
//     ("established", "adv-rc4"), a keyed family selector
//     ("version:tls12", "class:aead", "kex:ecdhe", "ext:heartbeat",
//     "curve:x25519", "tls13:tls13-google"), a family wildcard summing every
//     observed key ("curve:*"), or an element-wise sum of columns.
//   - series: one float64 value per month — pct(num / den) with the figure
//     convention that an empty denominator yields 0, or position(class),
//     the Figure 5 relative-position metric. A column used where a series
//     is expected is promoted to its raw counts.
//   - scalar: a single value — at(series, YYYY-MM), over(num / den) (the
//     whole-window ratio), count(column), or mean/min/max/first/last of a
//     series.
type Expr struct {
	// Op is the node operation, one of the Op* constants.
	Op string `json:"op"`
	// Col is the column selector for OpCol (canonical lowercase form).
	Col string `json:"col,omitempty"`
	// Class is the suite class for OpPosition (canonical lowercase form).
	Class string `json:"class,omitempty"`
	// Month is the "YYYY-MM" row selector for OpAt.
	Month string `json:"month,omitempty"`
	// Args are the operand expressions (see each Op for arity).
	Args []*Expr `json:"args,omitempty"`
}

// Expression operations.
const (
	OpCol      = "col"      // column: named or family:key selector
	OpSum      = "sum"      // column: element-wise sum of column args
	OpPct      = "pct"      // series: 100·num/den per month (args: num, den)
	OpPosition = "position" // series: Figure 5 avg relative suite position
	OpAt       = "at"       // scalar: series value at Month (0 when absent)
	OpOver     = "over"     // scalar: 100·Σnum/Σden over the whole window
	OpCount    = "count"    // scalar: Σ of a column over the whole window
	OpMean     = "mean"     // scalar: arithmetic mean of a series
	OpMin      = "min"      // scalar: minimum of a series
	OpMax      = "max"      // scalar: maximum of a series
	OpFirst    = "first"    // scalar: first monthly value
	OpLast     = "last"     // scalar: last monthly value
)

// Kind classifies what an expression evaluates to.
type Kind uint8

// Expression kinds.
const (
	KindColumn Kind = iota // dense per-month integer counts
	KindSeries             // one float64 per month
	KindScalar             // a single float64
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindColumn:
		return "column"
	case KindSeries:
		return "series"
	case KindScalar:
		return "scalar"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kind returns the expression's result kind. Only meaningful for valid
// expressions; unknown ops report KindScalar.
func (e *Expr) Kind() Kind {
	switch e.Op {
	case OpCol, OpSum:
		return KindColumn
	case OpPct, OpPosition:
		return KindSeries
	}
	return KindScalar
}

// --- column vocabulary ---

// namedColumns maps the canonical name of every plain frame column to its
// accessor: one entry per notary.Counters row plus the denominators and the
// columns the frame derives at build time. Keyed counters (versions,
// classes, ...) go through the family selectors instead.
var namedColumns = func() map[string]func(*Frame) []int {
	m := map[string]func(*Frame) []int{
		"total":              func(f *Frame) []int { return f.Total },
		"established":        func(f *Frame) []int { return f.Established },
		"fingerprints":       func(f *Frame) []int { return f.FPTotal },
		"fp-conns":           func(f *Frame) []int { return f.FPConns },
		"fp-rc4":             func(f *Frame) []int { return f.FPRC4 },
		"fp-des":             func(f *Frame) []int { return f.FPDES },
		"fp-3des":            func(f *Frame) []int { return f.FP3DES },
		"fp-aead":            func(f *Frame) []int { return f.FPAEAD },
		"neg-aead":           func(f *Frame) []int { return f.NegAEAD },
		"neg-aes128-gcm":     func(f *Frame) []int { return f.NegGCM128 },
		"neg-aes256-gcm":     func(f *Frame) []int { return f.NegGCM256 },
		"neg-chacha":         func(f *Frame) []int { return f.NegChaCha },
		"kex-forward-secret": func(f *Frame) []int { return f.KexForwardSecret },
	}
	for i, c := range notary.Counters {
		m[c.Name] = func(f *Frame) []int { return f.Counts[i] }
	}
	return m
}()

// versionKeys maps canonical (and alias) version names to wire values. The
// canonical form is the first spelling, e.g. "tls12".
var versionKeys = map[string]registry.Version{
	"ssl2": registry.VersionSSL2, "sslv2": registry.VersionSSL2,
	"ssl3": registry.VersionSSL3, "sslv3": registry.VersionSSL3,
	"tls10": registry.VersionTLS10, "tlsv10": registry.VersionTLS10,
	"tls11": registry.VersionTLS11, "tlsv11": registry.VersionTLS11,
	"tls12": registry.VersionTLS12, "tlsv12": registry.VersionTLS12,
	"tls13": registry.VersionTLS13, "tlsv13": registry.VersionTLS13,
	"tls13-draft18": registry.VersionTLS13Draft18, "tlsv13-draft18": registry.VersionTLS13Draft18,
	"tls13-draft28": registry.VersionTLS13Draft28, "tlsv13-draft28": registry.VersionTLS13Draft28,
	"tls13-google": registry.VersionTLS13Google, "tlsv13-google": registry.VersionTLS13Google,
}

// classKeys maps canonical class names to the Frame's suite-class map keys
// (shared by class: selectors and position()).
var classKeys = map[string]string{
	"aead": "AEAD", "cbc": "CBC", "rc4": "RC4",
	"des": "DES", "3des": "3DES", "stream": "Stream", "other": "other",
}

// kexKeys maps canonical key-exchange names to registry values.
var kexKeys = map[string]registry.KeyExchange{
	"null": registry.KexNULL, "rsa": registry.KexRSA,
	"dh": registry.KexDH, "dhe": registry.KexDHE,
	"ecdh": registry.KexECDH, "ecdhe": registry.KexECDHE,
	"psk": registry.KexPSK, "dhe-psk": registry.KexDHEPSK,
	"ecdhe-psk": registry.KexECDHEPSK, "rsa-psk": registry.KexRSAPSK,
	"srp": registry.KexSRP, "krb5": registry.KexKRB5,
	"gost": registry.KexGOST, "tls13": registry.KexTLS13,
}

// agentKeys maps the query grammar's client-class slugs to the clientdb
// class names the Agent columns are keyed by (the grammar's word bytes
// exclude spaces, '&' and '.', so "OS Tools and Services" queries as
// "agent:os-tools").
var agentKeys = map[string]string{
	"libraries":     string(clientdb.ClassLibrary),
	"browsers":      string(clientdb.ClassBrowser),
	"os-tools":      string(clientdb.ClassOSTool),
	"mobile-apps":   string(clientdb.ClassMobileApp),
	"dev-tools":     string(clientdb.ClassDevTool),
	"av":            string(clientdb.ClassAV),
	"cloud-storage": string(clientdb.ClassCloudStorage),
	"email":         string(clientdb.ClassEmail),
	"malware":       string(clientdb.ClassMalware),
}

// AgentSlug returns the agent: selector slug for a clientdb class name,
// ok=false for a class the vocabulary does not carry.
func AgentSlug(class string) (string, bool) {
	for slug, name := range agentKeys {
		if name == class {
			return slug, true
		}
	}
	return "", false
}

// isFPID reports whether s has the shape of an FPID column key: exactly 12
// lowercase hex digits. Any well-formed ID validates — an ID outside the
// frame's top-K set simply reads as the zero column, like any never-observed
// family key.
func isFPID(s string) bool {
	if len(s) != 12 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// extKeys and curveKeys are derived from the registry name tables (IANA
// names are already lowercase). They are var-initialized, not filled in an
// init func, because the catalog's own initializer validates expressions
// against them.
var (
	extKeys = func() map[string]registry.ExtensionID {
		m := make(map[string]registry.ExtensionID)
		for _, e := range registry.AllExtensions() {
			m[e.String()] = e
		}
		return m
	}()
	curveKeys = func() map[string]registry.CurveID {
		m := make(map[string]registry.CurveID)
		for _, c := range registry.AllCurves() {
			// IANA curve names are folded ("brainpoolP256r1" queries as
			// "curve:brainpoolp256r1") so selectors stay case-insensitive.
			m[fold(c.String())] = c
		}
		return m
	}()
)

// columnFamilies routes a "family:key" selector to the frame map it reads.
// The wildcard key "*" sums every observed column of the family.
var columnFamilies = map[string]struct {
	resolve func(key string) bool            // key validity (canonical form)
	column  func(f *Frame, key string) []int // nil when never observed
	all     func(f *Frame) map[string][]int  // nil: family has no wildcard
}{
	"version": {
		resolve: func(k string) bool { _, ok := versionKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Version[versionKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Version) },
	},
	"class": {
		resolve: func(k string) bool { _, ok := classKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Class[classKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Class) },
	},
	"kex": {
		resolve: func(k string) bool { _, ok := kexKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Kex[kexKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Kex) },
	},
	"ext": {
		resolve: func(k string) bool { _, ok := extKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Extension[extKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Extension) },
	},
	"curve": {
		resolve: func(k string) bool { _, ok := curveKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Curve[curveKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.Curve) },
	},
	"tls13": {
		resolve: func(k string) bool { _, ok := versionKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.TLS13Variant[versionKeys[k]] },
		all:     func(f *Frame) map[string][]int { return intCols(f.TLS13Variant) },
	},
	"fp": {
		resolve: func(k string) bool { return k == FPOtherKey || isFPID(k) },
		column:  func(f *Frame, k string) []int { return f.FPCol[k] },
		all:     func(f *Frame) map[string][]int { return f.FPCol },
	},
	"agent": {
		resolve: func(k string) bool { _, ok := agentKeys[k]; return ok },
		column:  func(f *Frame, k string) []int { return f.Agent[agentKeys[k]] },
		all:     func(f *Frame) map[string][]int { return f.Agent },
	},
}

// intCols erases a keyed column map's key type for the wildcard walk.
func intCols[K comparable](m map[K][]int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, c := range m {
		out[fmt.Sprint(k)] = c
	}
	return out
}

// ColumnNames lists every plain named column, sorted — the discoverable half
// of the column vocabulary (family selectors are open-ended).
func ColumnNames() []string {
	out := make([]string, 0, len(namedColumns))
	for n := range namedColumns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- validation ---

// fold lowercases ASCII in place-ish; returns s unchanged (and unallocated)
// when it is already lowercase.
func fold(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

// checkColumn validates a column selector, returning its canonical
// (folded) form without touching the input.
func checkColumn(name string) (string, error) {
	name = fold(name)
	if _, ok := namedColumns[name]; ok {
		return name, nil
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		fam, key := name[:i], name[i+1:]
		def, ok := columnFamilies[fam]
		if !ok {
			return "", fmt.Errorf("unknown column family %q (have version, class, kex, ext, curve, tls13, fp, agent)", fam)
		}
		if key == "*" || def.resolve(key) {
			return name, nil
		}
		return "", fmt.Errorf("unknown %s key %q", fam, key)
	}
	return "", fmt.Errorf("unknown column %q (see analysis.ColumnNames; family selectors are family:key)", name)
}

// parseMonth parses the grammar's "YYYY-MM" month literal.
func parseMonth(s string) (timeline.Month, error) {
	if len(s) != 7 || s[4] != '-' {
		return timeline.Month{}, fmt.Errorf("bad month %q (want YYYY-MM)", s)
	}
	y, err1 := strconv.Atoi(s[:4])
	m, err2 := strconv.Atoi(s[5:])
	if err1 != nil || err2 != nil || m < 1 || m > 12 {
		return timeline.Month{}, fmt.Errorf("bad month %q (want YYYY-MM)", s)
	}
	return timeline.M(y, time.Month(m)), nil
}

// Validate checks the expression tree without modifying it, so validating
// a shared expression (the catalog specs) is safe from any number of
// goroutines. Selectors match case-insensitively; an expression that
// validates cleanly cannot fail evaluation. ParseQuery additionally
// canonicalizes the trees it builds (see canonicalize).
func (e *Expr) Validate() error {
	if e == nil {
		return fmt.Errorf("nil expression")
	}
	arity := func(n int) error {
		if len(e.Args) != n {
			return fmt.Errorf("%s takes %d argument(s), got %d", e.Op, n, len(e.Args))
		}
		return nil
	}
	wantKind := func(a *Expr, k Kind) error {
		if err := a.Validate(); err != nil {
			return err
		}
		got := a.Kind()
		if got == k || (k == KindSeries && got == KindColumn) { // columns promote to series
			return nil
		}
		return fmt.Errorf("%s needs a %s argument, got %s (%s)", e.Op, k, got, a)
	}
	switch e.Op {
	case OpCol:
		if _, err := checkColumn(e.Col); err != nil {
			return err
		}
		if len(e.Args) != 0 {
			return fmt.Errorf("col takes no arguments")
		}
		return nil
	case OpSum:
		if len(e.Args) == 0 {
			return fmt.Errorf("sum needs at least one column")
		}
		for _, a := range e.Args {
			if err := wantKind(a, KindColumn); err != nil {
				return err
			}
		}
		return nil
	case OpPct, OpOver:
		if err := arity(2); err != nil {
			return err
		}
		for _, a := range e.Args {
			if err := wantKind(a, KindColumn); err != nil {
				return err
			}
		}
		return nil
	case OpPosition:
		if _, ok := classKeys[fold(e.Class)]; !ok {
			return fmt.Errorf("unknown suite class %q", e.Class)
		}
		if len(e.Args) != 0 {
			return fmt.Errorf("position takes no expression arguments")
		}
		return nil
	case OpAt:
		if err := arity(1); err != nil {
			return err
		}
		if _, err := parseMonth(e.Month); err != nil {
			return err
		}
		return wantKind(e.Args[0], KindSeries)
	case OpCount:
		if err := arity(1); err != nil {
			return err
		}
		return wantKind(e.Args[0], KindColumn)
	case OpMean, OpMin, OpMax, OpFirst, OpLast:
		if err := arity(1); err != nil {
			return err
		}
		return wantKind(e.Args[0], KindSeries)
	}
	return fmt.Errorf("unknown operation %q", e.Op)
}

// --- evaluation ---

// evalColumn resolves a validated column-kind expression to a dense []int
// aligned with the frame's months; nil means all-zero. Only sum nodes and
// family wildcards allocate (one scratch column each).
func (f *Frame) evalColumn(e *Expr) []int {
	switch e.Op {
	case OpCol:
		// fold is a no-op (and alloc-free) for canonical selectors; it keeps
		// evaluation of a JSON-decoded, never-canonicalized tree working.
		name := fold(e.Col)
		if get, ok := namedColumns[name]; ok {
			return get(f)
		}
		i := strings.IndexByte(name, ':')
		def := columnFamilies[name[:i]]
		if key := name[i+1:]; key != "*" {
			return def.column(f, key)
		}
		out := make([]int, f.Len())
		for _, c := range def.all(f) {
			for i, v := range c {
				out[i] += v
			}
		}
		return out
	case OpSum:
		out := make([]int, f.Len())
		for _, a := range e.Args {
			for i, v := range f.evalColumn(a) {
				out[i] += v
			}
		}
		return out
	}
	panic(fmt.Sprintf("analysis: evalColumn on %q node", e.Op))
}

// evalSeries evaluates a validated series- or column-kind expression into
// one float64 per month. The returned slice is the only allocation for
// pct/position over plain columns.
func (f *Frame) evalSeries(e *Expr) []float64 {
	out := make([]float64, f.Len())
	switch e.Op {
	case OpPct:
		num, den := f.evalColumn(e.Args[0]), f.evalColumn(e.Args[1])
		for i := range out {
			out[i] = pctAt(num, den, i)
		}
	case OpPosition:
		class := classKeys[fold(e.Class)]
		sums, counts := f.PosSum[class], f.PosCount[class]
		for i := range out {
			if c := at(counts, i); c != 0 {
				out[i] = 100 * sums[i] / float64(c)
			}
		}
	default: // column promotion: raw counts
		for i, v := range f.evalColumn(e) {
			out[i] = float64(v)
		}
	}
	return out
}

// evalScalar evaluates a validated scalar-kind expression.
func (f *Frame) evalScalar(e *Expr) float64 {
	switch e.Op {
	case OpAt:
		m, _ := parseMonth(e.Month) // validated
		row, ok := f.Row(m)
		if !ok {
			return 0
		}
		return f.evalSeries(e.Args[0])[row]
	case OpOver:
		num, den := sumCol(f.evalColumn(e.Args[0])), sumCol(f.evalColumn(e.Args[1]))
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	case OpCount:
		return float64(sumCol(f.evalColumn(e.Args[0])))
	}
	vals := f.evalSeries(e.Args[0])
	if len(vals) == 0 {
		return 0
	}
	switch e.Op {
	case OpMean:
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	case OpMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case OpMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case OpFirst:
		return vals[0]
	case OpLast:
		return vals[len(vals)-1]
	}
	panic(fmt.Sprintf("analysis: evalScalar on %q node", e.Op))
}

// EvalSeries validates e and evaluates it as a monthly series (columns
// evaluate to their raw counts). Beyond validation bookkeeping, the result
// slice is the only per-month allocation for plain-column expressions.
func (f *Frame) EvalSeries(e *Expr) ([]float64, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if e.Kind() == KindScalar {
		return nil, fmt.Errorf("expression %s is a scalar, not a series", e)
	}
	return f.evalSeries(e), nil
}

// EvalScalar validates e and evaluates it as a single value.
func (f *Frame) EvalScalar(e *Expr) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	if e.Kind() != KindScalar {
		return 0, fmt.Errorf("expression %s is a %s, not a scalar (wrap it in at/over/mean/...)", e, e.Kind())
	}
	return f.evalScalar(e), nil
}

// QueryResult is the answer to one expression query: a monthly series or a
// single scalar, tagged with the canonical form of the query it answers.
type QueryResult struct {
	// Query is the canonical text form of the evaluated expression.
	Query string
	// Kind is "series" or "scalar".
	Kind string
	// Series holds the monthly values when Kind == "series".
	Series Series
	// Value holds the result when Kind == "scalar".
	Value float64
}

// Query validates and evaluates an expression of any kind against the frame.
// Series results share the frame's month index (Series.Value is O(1)).
func (f *Frame) Query(e *Expr) (QueryResult, error) {
	if err := e.Validate(); err != nil {
		return QueryResult{}, err
	}
	src := e.String()
	if e.Kind() == KindScalar {
		return QueryResult{Query: src, Kind: "scalar", Value: f.evalScalar(e)}, nil
	}
	vals := f.evalSeries(e)
	pts := make([]Point, len(vals))
	for i, v := range vals {
		pts[i] = Point{Month: f.Months[i], Value: v}
	}
	return QueryResult{
		Query:  src,
		Kind:   "series",
		Series: Series{Name: src, Points: pts, index: f.index},
	}, nil
}

// QueryString parses src with ParseQuery and evaluates it.
func (f *Frame) QueryString(src string) (QueryResult, error) {
	e, err := ParseQuery(src)
	if err != nil {
		return QueryResult{}, err
	}
	return f.Query(e)
}
