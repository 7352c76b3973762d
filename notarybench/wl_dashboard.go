package main

import (
	"math/rand"
	"time"
)

// dashboardRound is the number of requests in one dashboard round.
// Rounds are long enough for forty samples beyond their p99.
const dashboardRound = 4000

// runDashboard is the read path with no ingest: one closed-loop client
// sends a seeded mix of POST /query (from a pool of distinct texts larger
// than the query cache, Zipf-popular) and, every figuresEvery requests, GET
// /figures. The frame is built once in set-up.
func runDashboard(e *env, cfg config) (*outcome, error) {
	st, setup, err := setUp(e, cfg, func(se *env) (*served, error) { return setUpServed(se, cfg) })
	if err != nil {
		return nil, err
	}
	st.in.recs = nil // preloaded; the copies would only add to the program's GC work
	pool := buildQueryPool(st.in.tally, cfg.queryPool, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	client := e.newClient(1)
	o := &outcome{setup: setup, tailQ: 0.95}
	o.note("%s", st.in.describe())
	seen := newBodies()
	var figLat []time.Duration
	start := time.Now()
	for round := 0; cfg.more(start, round); round++ {
		var busy time.Duration
		var lat []time.Duration
		for i := 0; i < dashboardRound; i++ {
			o.attempted++
			if (i+1)%cfg.figuresEvery == 0 {
				body, gen, d, err := getFigures(e, client, st.http.url)
				if err != nil {
					return o, err
				}
				figLat = append(figLat, d)
				busy += d
				first, err := seen.see("/figures", gen, body)
				if err != nil {
					return o, err
				}
				if first {
					if err := checkFigures(body, st.in.tally); err != nil {
						return o, err
					}
				}
				continue
			}
			q := pool[zipf.Uint64()]
			body, gen, _, d, err := timedQuery(e, client, st.http.url, q.text)
			if err != nil {
				return o, err
			}
			lat = append(lat, d)
			busy += d
			if err := checkPoolAnswer(seen, q, gen, body, st.in.tally); err != nil {
				return o, err
			}
		}
		o.rates = append(o.rates, dashboardRound/busy.Seconds())
		o.endRound(lat)
	}
	o.heapMB = heapMB()
	if err := checkStudy(httpAsker(e, client, st.http.url), st.in.tally, "dashboard study"); err != nil {
		return o, err
	}
	if err := checkAttribution(st.study, st.in.tally, "dashboard study"); err != nil {
		return o, err
	}
	recordCache(e, st)
	sortDurations(figLat)
	sortDurations(o.lat)
	o.note("dashboard: %d requests over a %d-query pool, figures p50 %.3f ms (%d samples), query p99 %.3f ms pooled, cache %+v",
		o.attempted, len(pool), ms(quantile(figLat, 0.5)), len(figLat), ms(quantile(o.lat, 0.99)), st.cache.Stats())
	return o, nil
}

// checkPoolAnswer checks one POST /query body: against earlier bodies of
// the same query at the same generation, and on first sight against the
// tally (or the percentage range).
func checkPoolAnswer(seen *bodies, q poolQuery, gen uint64, body []byte, t *tally) error {
	first, err := seen.see(q.text, gen, body)
	if err != nil || !first {
		return err
	}
	a, err := decodeAnswer(q.text, body)
	if err != nil {
		return err
	}
	a.gen = gen
	if q.percent {
		if err := checkPercent(a); err != nil {
			return err
		}
	}
	if q.oracle != nil {
		return checkOracle(a, *q.oracle, t)
	}
	return nil
}

// recordCache notes the query cache's counters and the study's plan
// compiles for the traced run.
func recordCache(e *env, st *served) {
	if e.tr == nil {
		return
	}
	s := st.cache.Stats()
	lookups := s.Hits + s.Misses
	e.tr.value("analysis.cache_lookups", float64(lookups))
	if lookups > 0 {
		e.tr.value("analysis.cache_hit_ratio", float64(s.Hits)/float64(lookups))
	}
	e.tr.value("analysis.cache_evictions", float64(s.Evictions))
	e.tr.value("core.plan_compiles", float64(st.study.PlanCompiles()))
}
