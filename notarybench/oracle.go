package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// checkError is a wrong answer from the program, as opposed to a failure of
// the benchmark itself.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func failf(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// answer is one decoded POST /query body.
type answer struct {
	Query  string  `json:"query"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	Series *struct {
		Points []point `json:"points"`
	} `json:"series"`
	gen uint64
	hit bool
}

type point struct {
	Month string  `json:"month"`
	Value float64 `json:"value"`
}

// asker answers one query text, over HTTP or in process.
type asker func(q string) (answer, []byte, error)

func decodeAnswer(q string, body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, failf("query %q: undecodable body %q: %v", q, body, err)
	}
	return a, nil
}

// httpAsker posts queries to a served study. The traced run files the
// handler spans of these checking requests under their own phase, apart
// from the workload's.
func httpAsker(e *env, c *http.Client, base string) asker {
	return func(q string) (answer, []byte, error) {
		defer e.tr.setPhase(e.tr.setPhase("check"))
		body, hdr, err := postQuery(c, base, q)
		if err != nil {
			return answer{}, nil, err
		}
		a, err := decodeAnswer(q, body)
		a.gen, _ = strconv.ParseUint(hdr.Get("X-Generation"), 10, 64)
		a.hit = hdr.Get("X-Cache") == "hit"
		return a, body, err
	}
}

// postQuery sends one POST /query and returns the body of a 200 answer.
func postQuery(c *http.Client, base, q string) ([]byte, http.Header, error) {
	req, _ := json.Marshal(map[string]string{"query": q})
	resp, err := c.Post(base+"/query", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, nil, fmt.Errorf("POST /query %q: %w", q, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("POST /query %q: reading body: %w", q, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, failf("POST /query %q: status %d: %s", q, resp.StatusCode, body)
	}
	return body, resp.Header, nil
}

// studyAsker queries a study in process, without HTTP.
func studyAsker(s *core.Study) asker {
	return func(q string) (answer, []byte, error) {
		res, body, gen, hit, err := s.QueryInfoJSON(q)
		if err != nil {
			return answer{}, nil, failf("query %q: %v", q, err)
		}
		if body == nil { // no result cache attached
			if body, err = res.EncodeJSONBody(); err != nil {
				return answer{}, nil, err
			}
		}
		a, err := decodeAnswer(q, body)
		a.gen, a.hit = gen, hit
		return a, body, err
	}
}

// checkStudy compares a study's answers with the tally: every month of the
// plain columns and negotiated versions exactly, the version percentages
// within float tolerance, and the two sum properties of the method
// (version:* adds up to established, fp:* to fp-conns).
func checkStudy(ask asker, t *tally, label string) error {
	months := t.sortedMonths()
	series := func(q string) (map[string]float64, error) {
		a, _, err := ask(q)
		if err != nil {
			return nil, err
		}
		if a.Kind != "series" || a.Series == nil {
			return nil, failf("%s: %q answered kind %q, want series", label, q, a.Kind)
		}
		if len(a.Series.Points) != len(months) {
			return nil, failf("%s: %q has %d months, the tally %d", label, q, len(a.Series.Points), len(months))
		}
		out := make(map[string]float64, len(months))
		for i, p := range a.Series.Points {
			if want := monthText(months[i]); p.Month != want {
				return nil, failf("%s: %q month %d is %s, the tally's %s", label, q, i, p.Month, want)
			}
			out[p.Month] = p.Value
		}
		return out, nil
	}
	exact := func(q, col string, ver uint16) (map[string]float64, error) {
		got, err := series(q)
		if err != nil {
			return nil, err
		}
		for _, m := range months {
			if want := float64(t.column(col, ver, m)); got[monthText(m)] != want {
				return nil, failf("%s: %s in %s is %v, the tally counts %v", label, q, monthText(m), got[monthText(m)], want)
			}
		}
		return got, nil
	}
	for _, col := range []string{"total", "offers-heartbeat", "sslv2-hellos", "fingerprints"} {
		if _, err := exact(col, col, 0); err != nil {
			return err
		}
	}
	established, err := exact("established", "established", 0)
	if err != nil {
		return err
	}
	fpConns, err := exact("fp-conns", "fp-conns", 0)
	if err != nil {
		return err
	}
	for v, name := range versionNames {
		if _, err := exact("version:"+name, "version", v); err != nil {
			return err
		}
		q := "pct(version:" + name + " / established)"
		got, err := series(q)
		if err != nil {
			return err
		}
		for _, m := range months {
			g := got[monthText(m)]
			if g < 0 || g > 100 {
				return failf("%s: %s in %s is %v, outside [0, 100]", label, q, monthText(m), g)
			}
			if want := pct(t.column("version", v, m), t.column("established", 0, m)); !near(g, want) {
				return failf("%s: %s in %s is %v, the tally gives %v", label, q, monthText(m), g, want)
			}
		}
	}
	for _, sum := range []struct {
		q    string
		want map[string]float64
		of   string
	}{{"version:*", established, "established"}, {"fp:*", fpConns, "fp-conns"}} {
		got, err := series(sum.q)
		if err != nil {
			return err
		}
		for m, v := range got {
			if v != sum.want[m] {
				return failf("%s: %s in %s sums to %v but %s is %v", label, sum.q, m, v, sum.of, sum.want[m])
			}
		}
	}
	a, _, err := ask("count(fp-conns)")
	if err != nil {
		return err
	}
	if want := float64(t.sum("fp-conns", 0)); a.Value != want {
		return failf("%s: count(fp-conns) is %v, the tally counts %v fingerprinted records", label, a.Value, want)
	}
	return nil
}

// checkOracle checks one answer to a query the tally predicts.
func checkOracle(a answer, q oracleQuery, t *tally) error {
	if a.Kind != "scalar" {
		return failf("%s answered kind %q, want scalar", q.text(), a.Kind)
	}
	if want := t.expect(q); !near(a.Value, want) {
		return failf("%s is %v at generation %d, the tally gives %v", q.text(), a.Value, a.gen, want)
	}
	return nil
}

// checkPercent checks that every number of a percentage answer lies in
// [0, 100].
func checkPercent(a answer) error {
	if a.Kind == "scalar" {
		if a.Value < 0 || a.Value > 100 {
			return failf("%s is %v, outside [0, 100]", a.Query, a.Value)
		}
		return nil
	}
	if a.Series != nil {
		for _, p := range a.Series.Points {
			if p.Value < 0 || p.Value > 100 {
				return failf("%s in %s is %v, outside [0, 100]", a.Query, p.Month, p.Value)
			}
		}
	}
	return nil
}

// figureJSON is one figure of a GET /figures body.
type figureJSON struct {
	ID     string `json:"id"`
	Series []struct {
		Name   string  `json:"name"`
		Points []point `json:"points"`
	} `json:"series"`
}

// figureVersions names Figure 1's series by negotiated version.
var figureVersions = map[string]uint16{
	"SSLv3": 0x0300, "TLSv10": 0x0301, "TLSv11": 0x0302, "TLSv12": 0x0303, "TLSv13": 0x0304,
}

// checkFigures checks a GET /figures body (or its in-process equivalent):
// every percentage lies in [0, 100] and Figure 1 matches the tally's
// negotiated-version shares month by month.
func checkFigures(body []byte, t *tally) error {
	var figs []figureJSON
	if err := json.Unmarshal(body, &figs); err != nil {
		return failf("figures: undecodable body: %v", err)
	}
	paper := 0
	for _, spec := range analysis.Catalog() {
		if spec.Num != 0 {
			paper++
		}
	}
	if len(figs) != paper {
		return failf("figures: %d figures, the catalog has %d paper figures", len(figs), paper)
	}
	seen := 0
	for _, f := range figs {
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Value < 0 || p.Value > 100 {
					return failf("figures: %s %s in %s is %v, outside [0, 100]", f.ID, s.Name, p.Month, p.Value)
				}
			}
			v, ok := figureVersions[s.Name]
			if f.ID != "Figure 1" || !ok {
				continue
			}
			seen++
			for _, p := range s.Points {
				m, err := parseMonthText(p.Month)
				if err != nil {
					return failf("figures: %v", err)
				}
				if want := pct(t.column("version", v, m), t.column("established", 0, m)); !near(p.Value, want) {
					return failf("figures: Figure 1 %s in %s is %v, the tally gives %v", s.Name, p.Month, p.Value, want)
				}
			}
		}
	}
	if seen != len(figureVersions) {
		return failf("figures: Figure 1 has %d of its %d version series", seen, len(figureVersions))
	}
	return nil
}

func parseMonthText(s string) (int32, error) {
	y, m, ok := strings.Cut(s, "-")
	yi, err1 := strconv.Atoi(y)
	mi, err2 := strconv.Atoi(m)
	if !ok || err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad month %q", s)
	}
	return int32(yi*12 + mi - 1), nil
}

// checkAttribution checks Table 2 and the whole-window fingerprint count of
// a study: the distinct fingerprints equal the tally's, Table 2's per-class
// fingerprint counts add up to its total, and its coverages are
// percentages whose rows do not exceed the total coverage.
func checkAttribution(s *core.Study, t *tally, label string) error {
	f, err := s.Frame()
	if err != nil {
		return failf("%s: frame: %v", label, err)
	}
	if distinct, _, _ := f.FingerprintGauges(); distinct != len(t.fps) {
		return failf("%s: %d distinct fingerprints, the tally has %d", label, distinct, len(t.fps))
	}
	rep, err := s.Table2()
	if err != nil {
		return failf("%s: table 2: %v", label, err)
	}
	fps, cov := 0, 0.0
	for _, r := range rep.Rows {
		fps += r.NumFPs
		cov += r.Coverage
		if r.Coverage < 0 || r.Coverage > 100 {
			return failf("%s: table 2 %s coverage %v outside [0, 100]", label, r.Class, r.Coverage)
		}
	}
	if rep.TotalFPs == 0 || fps != rep.TotalFPs {
		return failf("%s: table 2 rows hold %d fingerprints, its total says %d", label, fps, rep.TotalFPs)
	}
	if rep.TotalCoverage < 0 || rep.TotalCoverage > 100 || cov > rep.TotalCoverage+1e-9 {
		return failf("%s: table 2 coverage %v (rows %v) inconsistent", label, rep.TotalCoverage, cov)
	}
	return nil
}
