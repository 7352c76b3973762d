package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/registry"
	"tlsage/internal/service"
)

// served is the set-up shared by dashboard and live: the record pool, a
// study preloaded with it behind a loopback server with the serve defaults
// (merge queue, in-flight limit, 1024-entry query cache), and its frame
// built once.
type served struct {
	in    *inputs
	study *core.Study
	srv   *service.Server
	cache *analysis.QueryCache
	http  *httpServer
}

func setUpServed(e *env, cfg config) (*served, error) {
	in, err := generate(cfg, cfg.poolConns, true)
	if err != nil {
		return nil, err
	}
	study := core.NewLiveStudy()
	shard := study.NewShard()
	for _, r := range in.recs {
		shard.Add(r)
	}
	if err := study.MergeShard(shard); err != nil {
		return nil, err
	}
	if _, err := study.Frame(); err != nil {
		return nil, err
	}
	cache := analysis.NewQueryCache(cfg.cacheEntries, cfg.cacheBytes)
	srv := service.NewServer(study, servedOptions(cache, "notary")...)
	e.onClose("notary server", srv.Close)
	hs, err := e.serveHTTP("notary", traceHandler(e.tr, srv.Handler()))
	if err != nil {
		return nil, err
	}
	return &served{in: in, study: study, srv: srv, cache: cache, http: hs}, nil
}

// servedOptions are the tlstrend serve defaults for a hosted study.
func servedOptions(cache *analysis.QueryCache, id string) []service.Option {
	return []service.Option{
		service.WithQueueBound(service.DefaultQueueBound),
		service.WithMaxInFlight(64),
		service.WithQueryCache(cache, id),
	}
}

// logf sends the program's warnings to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "program: "+format+"\n", args...)
}

// --- query pools ---

// poolQuery is one query text with what the benchmark knows of its answer.
type poolQuery struct {
	text    string
	oracle  *oracleQuery // nil when the tally does not predict the answer
	percent bool         // every number of the answer is a percentage
}

// oracleQueries lists every scalar query the tally predicts, over months.
func oracleQueries(months []int32) []poolQuery {
	cols := []string{"total", "established", "offers-heartbeat", "sslv2-hellos", "fp-conns", "fingerprints"}
	vers := []uint16{0x0300, 0x0301, 0x0302, 0x0303, 0x0304}
	var out []poolQuery
	add := func(q oracleQuery) {
		out = append(out, poolQuery{text: q.text(), oracle: &q, percent: q.kind == 'o' || q.kind == 'p'})
	}
	for _, c := range cols {
		add(oracleQuery{kind: 'c', col: c})
	}
	for _, v := range vers {
		add(oracleQuery{kind: 'c', col: "version", ver: v})
		add(oracleQuery{kind: 'o', col: "version", ver: v})
	}
	for _, m := range months {
		for _, c := range cols {
			add(oracleQuery{kind: 'a', col: c, month: m})
		}
		for _, v := range vers {
			add(oracleQuery{kind: 'a', col: "version", ver: v, month: m})
			add(oracleQuery{kind: 'p', col: "version", ver: v, month: m})
		}
	}
	return out
}

// percentQueries lists percentage queries whose answers the benchmark only
// checks for range: advertised suite classes, negotiated classes and key
// exchanges per month, and extension and curve uptake as whole series.
func percentQueries(months []int32) []poolQuery {
	var cols []string
	for _, c := range []string{"rc4", "des", "3des", "aead", "export", "anon", "null", "aes128-gcm", "aes256-gcm", "chacha", "ccm", "tls13"} {
		cols = append(cols, "pct(adv-"+c+" / total)")
	}
	for _, c := range []string{"aead", "cbc", "rc4", "des", "3des"} {
		cols = append(cols, "pct(class:"+c+" / established)")
	}
	for _, k := range []string{"rsa", "dhe", "ecdhe"} {
		cols = append(cols, "pct(kex:"+k+" / established)")
	}
	for _, x := range registry.AllExtensions() {
		cols = append(cols, "pct(ext:"+strings.ToLower(x.String())+" / total)")
	}
	var out []poolQuery
	for _, m := range months {
		for _, c := range cols {
			out = append(out, poolQuery{text: "at(" + c + ", " + monthText(m) + ")", percent: true})
		}
	}
	for _, x := range registry.AllExtensions() {
		out = append(out, poolQuery{text: "pct(ext:" + strings.ToLower(x.String()) + " / total)", percent: true})
	}
	for _, c := range registry.AllCurves() {
		out = append(out, poolQuery{text: "pct(curve:" + strings.ToLower(c.String()) + " / curve:*)", percent: true})
	}
	valid := out[:0]
	for _, q := range out {
		if _, err := analysis.ParseQuery(q.text); err == nil {
			valid = append(valid, q)
		}
	}
	return valid
}

// buildQueryPool draws up to n distinct queries in popularity order. The
// shape of the query at each rank is fixed (every 64th a whole series, 19
// of every 64 a scalar the tally predicts, the rest a percentage in one
// month) and the seed picks which query of that shape, so seeds change the
// texts but not the mix.
func buildQueryPool(t *tally, n int, seed int64) []poolQuery {
	months := t.sortedMonths()
	var series, monthly []poolQuery
	for _, q := range percentQueries(months) {
		if strings.HasPrefix(q.text, "at(") {
			monthly = append(monthly, q)
		} else {
			series = append(series, q)
		}
	}
	shapes := [][]poolQuery{series, oracleQueries(months), monthly}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range shapes {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	var out []poolQuery
	for r := 0; r < n; r++ {
		c := 2
		switch k := r % 64; {
		case k == 0:
			c = 0
		case k <= 19:
			c = 1
		}
		for tries := 0; len(shapes[c]) == 0 && tries < len(shapes); tries++ {
			c = (c + 1) % len(shapes) // a shape ran out: take the next
		}
		if len(shapes[c]) == 0 {
			break
		}
		out = append(out, shapes[c][0])
		shapes[c] = shapes[c][1:]
	}
	return out
}

// buildHotSet draws n distinct queries the tally predicts, the same number
// of each kind (count, over, at, at of a percentage), so seeds change the
// texts but not the mix.
func buildHotSet(t *tally, n int, seed int64) []poolQuery {
	kinds := map[byte][]poolQuery{}
	for _, q := range oracleQueries(t.sortedMonths()) {
		kinds[q.oracle.kind] = append(kinds[q.oracle.kind], q)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []poolQuery
	for _, k := range []byte{'c', 'o', 'a', 'p'} {
		qs := kinds[k]
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		out = append(out, qs[:min(n/4, len(qs))]...)
	}
	return out
}

// --- answer bookkeeping ---

// answerKey is one query text at one generation.
type answerKey struct {
	gen  uint64
	text string
}

// bodies remembers a hash of the first body seen for each (generation,
// query) and checks every later body against it: a cache hit must be
// byte-identical to the miss that filled it.
type bodies struct {
	seed    maphash.Seed
	first   map[answerKey]uint64
	lastGen uint64
}

func newBodies() *bodies {
	return &bodies{seed: maphash.MakeSeed(), first: map[answerKey]uint64{}}
}

// see reports whether this is the first body for the key, and fails when a
// repeated body differs or the generation went backwards.
func (b *bodies) see(text string, gen uint64, body []byte) (bool, error) {
	if gen < b.lastGen {
		return false, failf("%s: X-Generation went back from %d to %d", text, b.lastGen, gen)
	}
	b.lastGen = gen
	h := maphash.Bytes(b.seed, body)
	k := answerKey{gen, text}
	prev, ok := b.first[k]
	if !ok {
		b.first[k] = h
		return true, nil
	}
	if prev != h {
		return false, failf("%s at generation %d: body differs from the first answer at that generation", text, gen)
	}
	return false, nil
}

// --- requests ---

// timedQuery posts one query and returns its body, generation, cache flag
// and client-observed latency.
func timedQuery(e *env, c *http.Client, base, text string) ([]byte, uint64, bool, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/query", strings.NewReader(`{"query":`+strconv.Quote(text)+`}`))
	if err != nil {
		return nil, 0, false, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := e.tr.begin("client.query", 0)
	tagSpan(req, sp)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, false, 0, fmt.Errorf("POST /query %q: %w", text, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, 0, false, 0, fmt.Errorf("POST /query %q: %w", text, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, false, 0, failf("POST /query %q: status %d: %s", text, resp.StatusCode, body)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Generation"), 10, 64)
	if err != nil {
		return nil, 0, false, 0, failf("POST /query %q: X-Generation %q", text, resp.Header.Get("X-Generation"))
	}
	return body, gen, resp.Header.Get("X-Cache") == "hit", d, nil
}

// getFigures fetches GET /figures.
func getFigures(e *env, c *http.Client, base string) ([]byte, uint64, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/figures", nil)
	if err != nil {
		return nil, 0, 0, err
	}
	sp := e.tr.begin("client.figures", 0)
	tagSpan(req, sp)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("GET /figures: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("GET /figures: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, 0, failf("GET /figures: status %d: %s", resp.StatusCode, body)
	}
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Generation"), 10, 64)
	return body, gen, d, nil
}

// postIngest sends one POST /ingest of binary frames and checks that the
// server applied every record.
func postIngest(e *env, parent int32, c *http.Client, base string, body []byte, records int) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", service.ContentTypeBatch)
	sp := e.tr.begin("client.ingest", parent)
	tagSpan(req, sp)
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("POST /ingest: %w", err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	sp.endN(int64(records))
	if err != nil {
		return 0, fmt.Errorf("POST /ingest: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, failf("POST /ingest: status %d: %s", resp.StatusCode, reply)
	}
	if !bytes.Contains(reply, []byte(`"records": `+strconv.Itoa(records)+",")) {
		return 0, failf("POST /ingest of %d records answered %s", records, reply)
	}
	return d, nil
}
