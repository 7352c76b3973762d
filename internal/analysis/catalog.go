package analysis

import (
	"fmt"

	"tlsage/internal/timeline"
)

// MetricSpec names one series of a figure and the expression that computes
// it. Specs are pure data: they marshal to JSON and round-trip through the
// query grammar, so the catalog itself is servable and any metric can be
// re-evaluated from its serialized form.
type MetricSpec struct {
	Name string
	Expr *Expr
}

// FigureSpec is one catalog entry: a figure as data. The generic engine
// (Frame.EvalFigure) turns a spec into the same Figure value the hand-rolled
// constructors used to build.
type FigureSpec struct {
	// Num is the paper figure number (1–10), 0 for extras like the §9
	// extension-uptake figure.
	Num int
	// ID is the rendered identifier, e.g. "Figure 4".
	ID string
	// Name is the catalog lookup name, e.g. "fingerprint-classes".
	Name string
	// Title is the rendered figure title.
	Title string
	// Metrics are the figure's series, in render order.
	Metrics []MetricSpec
	// Events names the timeline attack events drawn as markers.
	Events []string
}

// q parses a catalog expression, panicking on error: the catalog is static
// data validated at package init.
func q(src string) *Expr {
	e, err := ParseQuery(src)
	if err != nil {
		panic(fmt.Sprintf("analysis: bad catalog query: %v", err))
	}
	return e
}

// --- the catalog ---

// catalog declares every figure of the paper plus the §9 extension-uptake
// extra, each series a query-grammar expression. Order fixes Figures()'
// output; Num and Name are the lookup keys.
var catalog = []FigureSpec{
	{
		Num: 1, ID: "Figure 1", Name: "versions",
		Title: "Negotiated SSL/TLS versions (% monthly connections)",
		Metrics: []MetricSpec{
			{"SSLv3", q("pct(version:ssl3 / established)")},
			{"TLSv10", q("pct(version:tls10 / established)")},
			{"TLSv11", q("pct(version:tls11 / established)")},
			{"TLSv12", q("pct(version:tls12 / established)")},
			{"TLSv13", q("pct(version:tls13 / established)")},
		},
		Events: []string{timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventSnowden, timeline.EventRC4Passwords, timeline.EventRC4NoMore,
			timeline.EventSweet32},
	},
	{
		Num: 2, ID: "Figure 2", Name: "negotiated-classes",
		Title: "Negotiated connections using RC4, CBC or AEAD (%)",
		Metrics: []MetricSpec{
			{"AEAD", q("pct(class:aead / established)")},
			{"CBC", q("pct(class:cbc / established)")},
			{"RC4", q("pct(class:rc4 / established)")},
		},
		Events: []string{timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventSnowden, timeline.EventRC4Passwords, timeline.EventRC4NoMore,
			timeline.EventSweet32},
	},
	{
		Num: 3, ID: "Figure 3", Name: "advertised-classes",
		Title: "Client-advertised RC4 / DES / 3DES / AEAD (% connections)",
		Metrics: []MetricSpec{
			{"AEAD", q("pct(adv-aead / total)")},
			{"RC4", q("pct(adv-rc4 / total)")},
			{"DES", q("pct(adv-des / total)")},
			{"3DES", q("pct(adv-3des / total)")},
		},
		Events: []string{timeline.EventLucky13, timeline.EventPOODLE, timeline.EventRC4,
			timeline.EventRC4Passwords, timeline.EventRC4NoMore, timeline.EventSweet32},
	},
	{
		Num: 4, ID: "Figure 4", Name: "fingerprint-classes",
		Title: "Fingerprints supporting RC4 / DES / 3DES / AEAD (% monthly fingerprints)",
		Metrics: []MetricSpec{
			{"AEAD", q("pct(fp-aead / fingerprints)")},
			{"RC4", q("pct(fp-rc4 / fingerprints)")},
			{"DES", q("pct(fp-des / fingerprints)")},
			{"3DES", q("pct(fp-3des / fingerprints)")},
		},
		Events: []string{timeline.EventPOODLE, timeline.EventRC4Passwords,
			timeline.EventRC4NoMore, timeline.EventSweet32},
	},
	{
		Num: 5, ID: "Figure 5", Name: "cipher-positions",
		Title: "Average relative position of first advertised cipher by class (%)",
		Metrics: []MetricSpec{
			{"AEAD", q("position(aead)")},
			{"CBC", q("position(cbc)")},
			{"RC4", q("position(rc4)")},
			{"DES", q("position(des)")},
			{"3DES", q("position(3des)")},
		},
	},
	{
		Num: 6, ID: "Figure 6", Name: "rc4-advertised",
		Title: "Connections with client-advertised RC4 (%)",
		Metrics: []MetricSpec{
			{"RC4 advertised", q("pct(adv-rc4 / total)")},
		},
		Events: []string{timeline.EventRC4, timeline.EventRFC7465,
			timeline.EventRC4Passwords, timeline.EventRC4NoMore},
	},
	{
		Num: 7, ID: "Figure 7", Name: "weak-advertised",
		Title: "Client-advertised Export / Anonymous / NULL suites (% connections)",
		Metrics: []MetricSpec{
			{"Export", q("pct(adv-export / total)")},
			{"Anonymous", q("pct(adv-anon / total)")},
			{"Null", q("pct(adv-null / total)")},
		},
		Events: []string{timeline.EventFREAK, timeline.EventLogjam},
	},
	{
		Num: 8, ID: "Figure 8", Name: "key-exchange",
		Title: "Negotiated RSA / DHE / ECDHE key exchange (% connections)",
		Metrics: []MetricSpec{
			{"RSA", q("pct(kex:rsa / established)")},
			{"DHE", q("pct(kex:dhe / established)")},
			// TLS 1.3 counts as ECDHE: its key exchange is ephemeral.
			{"ECDHE", q("pct(sum(kex:ecdhe, kex:tls13) / established)")},
		},
		Events: []string{timeline.EventSnowden},
	},
	{
		Num: 9, ID: "Figure 9", Name: "aead-negotiated",
		Title: "Negotiated AEAD ciphers (% connections)",
		Metrics: []MetricSpec{
			{"AEAD Total", q("pct(neg-aead / established)")},
			{"AES128-GCM", q("pct(neg-aes128-gcm / established)")},
			{"AES256-GCM", q("pct(neg-aes256-gcm / established)")},
			{"ChaCha20-Poly1305", q("pct(neg-chacha / established)")},
		},
	},
	{
		Num: 10, ID: "Figure 10", Name: "aead-advertised",
		Title: "Client-advertised AEAD ciphers (% connections)",
		Metrics: []MetricSpec{
			{"AES128-GCM", q("pct(adv-aes128-gcm / total)")},
			{"AES256-GCM", q("pct(adv-aes256-gcm / total)")},
			{"ChaCha20-Poly1305", q("pct(adv-chacha / total)")},
			{"AES-CCM", q("pct(adv-ccm / total)")},
		},
	},
	{
		// The §9 "other fascinating insights" figure the paper mentions but
		// had no space for: monthly advertisement of renegotiation_info (the
		// RIE response to the renegotiation attack), encrypt_then_mac (the
		// Lucky 13 response with "very limited take up"), and friends.
		Num: 0, ID: "Figure E1", Name: "extensions",
		Title: "Client-advertised TLS extensions (% connections)",
		Metrics: []MetricSpec{
			{"renegotiation_info", q("pct(ext:renegotiation_info / total)")},
			{"encrypt_then_mac", q("pct(ext:encrypt_then_mac / total)")},
			{"extended_master_secret", q("pct(ext:extended_master_secret / total)")},
			{"session_ticket", q("pct(ext:session_ticket / total)")},
			{"server_name", q("pct(ext:server_name / total)")},
			{"heartbeat", q("pct(ext:heartbeat / total)")},
			{"supported_versions", q("pct(ext:supported_versions / total)")},
		},
		Events: []string{timeline.EventLucky13, timeline.EventHeartbleed},
	},
	{
		// §4 / Table 2 over time: the share of fingerprinted connections
		// attributed to each client class, month by month. The Table 2 scalars
		// are the over() folds of exactly these ratios.
		Num: 0, ID: "Figure E2", Name: "agent-classes",
		Title: "Attributed client classes (% fingerprinted connections)",
		Metrics: []MetricSpec{
			{"Libraries", q("pct(agent:libraries / fp-conns)")},
			{"Browsers", q("pct(agent:browsers / fp-conns)")},
			{"OS Tools and Services", q("pct(agent:os-tools / fp-conns)")},
			{"Mobile apps", q("pct(agent:mobile-apps / fp-conns)")},
			{"Dev. tools", q("pct(agent:dev-tools / fp-conns)")},
			{"AV", q("pct(agent:av / fp-conns)")},
			{"Cloud Storage", q("pct(agent:cloud-storage / fp-conns)")},
			{"Email", q("pct(agent:email / fp-conns)")},
			{"Malware & PUP", q("pct(agent:malware / fp-conns)")},
		},
	},
}

// Catalog returns every declared figure spec, paper figures first.
func Catalog() []FigureSpec { return catalog }

// CatalogNames returns the lookup name of every catalog figure, in catalog
// order — the "valid names" list for lookup-miss errors.
func CatalogNames() []string {
	out := make([]string, 0, len(catalog))
	for _, s := range catalog {
		out = append(out, s.Name)
	}
	return out
}

// SpecByNum finds the paper figure numbered n (1–10).
func SpecByNum(n int) (FigureSpec, bool) {
	for _, s := range catalog {
		if s.Num == n && n != 0 {
			return s, true
		}
	}
	return FigureSpec{}, false
}

// SpecByName finds a spec by catalog name, e.g. "fingerprint-classes".
// Names match case-insensitively.
func SpecByName(name string) (FigureSpec, bool) {
	name = fold(name)
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return FigureSpec{}, false
}

// --- the engine ---

// EvalFigure evaluates one spec against the frame: every metric expression
// becomes a series with one point per month on the frame's axis. The
// produced Series share the frame's month index, making Series.Value O(1).
// Catalog specs evaluate through the frame's pre-compiled plans; a
// hand-built spec's expressions compile on the spot. EvalFigure panics on a
// spec whose expression does not validate — specs are static data, so that
// is a programming error, not an input error.
func (f *Frame) EvalFigure(spec FigureSpec) Figure {
	fig := Figure{
		ID:     spec.ID,
		Title:  spec.Title,
		Series: make([]Series, 0, len(spec.Metrics)),
		Events: attackEvents(spec.Events...),
	}
	for _, m := range spec.Metrics {
		p := f.planFor(m.Expr)
		if p == nil {
			var err error
			if p, err = Compile(m.Expr, f); err != nil {
				panic(fmt.Sprintf("analysis: figure %s metric %s: %v", spec.ID, m.Name, err))
			}
		}
		if p.Kind() == KindScalar {
			panic(fmt.Sprintf("analysis: figure %s metric %s: expression %s is a scalar, not a series",
				spec.ID, m.Name, m.Expr))
		}
		vals := p.EvalSeries()
		pts := make([]Point, len(vals))
		for i, v := range vals {
			pts[i] = Point{Month: f.Months[i], Value: v}
		}
		fig.Series = append(fig.Series, Series{Name: m.Name, Points: pts, index: f.index})
	}
	return fig
}

// Figures evaluates the ten paper figures in order.
func (f *Frame) Figures() []Figure {
	out := make([]Figure, 0, 10)
	for _, spec := range catalog {
		if spec.Num != 0 {
			out = append(out, f.EvalFigure(spec))
		}
	}
	return out
}

// FigureByNum evaluates paper figure n (1–10).
func (f *Frame) FigureByNum(n int) (Figure, bool) {
	spec, ok := SpecByNum(n)
	if !ok {
		return Figure{}, false
	}
	return f.EvalFigure(spec), true
}

// FigureByName evaluates the catalog figure with the given name.
func (f *Frame) FigureByName(name string) (Figure, bool) {
	spec, ok := SpecByName(name)
	if !ok {
		return Figure{}, false
	}
	return f.EvalFigure(spec), true
}
