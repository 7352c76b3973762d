package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
)

// runStudy is the paper reproduction offline: simulate the study window
// with two workers into a TSV connection log (tlstrend simulate -out),
// reload it (tlstrend loadlog -workers 2), then evaluate every catalog
// figure, the scalars and Table 2. Set-up simulates the same window once
// into the benchmark's tally. One round is one reproduction; its operations
// are the five calls above.
func runStudy(e *env, cfg config) (*outcome, error) {
	in, setup, err := setUp(e, cfg, func(*env) (*inputs, error) {
		return generate(cfg, cfg.studyConns, false)
	})
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("study-")
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "notary_conn.log")
	o := &outcome{setup: setup, tailQ: 0.75}
	o.note("%s", in.describe())
	var last *core.Study
	start := time.Now()
	for round := 0; cfg.more(start, round); round++ {
		t0 := time.Now()
		reloaded, figs, err := studyRound(e, cfg, logPath, o)
		if err != nil {
			return o, err
		}
		d := time.Since(t0)
		o.lat = append(o.lat, d)
		o.rates = append(o.rates, float64(in.tally.n)/d.Seconds())
		if err := checkStudyRound(reloaded, figs, in.tally); err != nil {
			return o, err
		}
		last = reloaded
	}
	o.heapMB = heapMB()
	runtime.KeepAlive(last)
	o.note("study: %d records per reproduction, %d reproductions, median %.3f s", in.tally.n, len(o.lat), median(seconds(o.lat)))
	return o, nil
}

// studyRound is one reproduction; it returns the reloaded study and its
// figures, encoded as GET /figures would send them.
func studyRound(e *env, cfg config, logPath string, o *outcome) (*core.Study, []byte, error) {
	o.attempted += 5
	f, err := os.Create(logPath)
	if err != nil {
		return nil, nil, err
	}
	sim := core.NewStudy(cfg.studyConns)
	sim.Options.Seed = cfg.seed
	sim.Options.Workers = cfg.workers
	sp := e.tr.begin("core.Study.Run", 0)
	err = sim.Run(f)
	sp.end()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("simulating the study into %s: %w", logPath, err)
	}
	if f, err = os.Open(logPath); err != nil {
		return nil, nil, err
	}
	defer f.Close()
	reloaded := core.NewStudy(cfg.studyConns)
	reloaded.Options.Workers = cfg.workers
	sp = e.tr.begin("core.Study.LoadLog", 0)
	err = reloaded.LoadLog(f)
	sp.end()
	if err != nil {
		return nil, nil, failf("reloading the study log: %v", err)
	}
	sp = e.tr.begin("core.Study.Figures", 0)
	figs, err := reloaded.Figures()
	for _, spec := range analysis.Catalog() {
		if spec.Num == 0 && err == nil { // the catalog's extras beside the paper figures
			_, err = reloaded.FigureByName(spec.Name)
		}
	}
	sp.end()
	if err != nil {
		return nil, nil, failf("figures: %v", err)
	}
	sp = e.tr.begin("core.Study.Scalars", 0)
	_, err = reloaded.Scalars()
	sp.end()
	if err != nil {
		return nil, nil, failf("scalars: %v", err)
	}
	sp = e.tr.begin("core.Study.Table2", 0)
	_, err = reloaded.Table2()
	sp.end()
	if err != nil {
		return nil, nil, failf("table 2: %v", err)
	}
	body, err := json.Marshal(figs)
	if err != nil {
		return nil, nil, err
	}
	return reloaded, body, nil
}

func checkStudyRound(s *core.Study, figs []byte, t *tally) error {
	if err := checkStudy(studyAsker(s), t, "reloaded study"); err != nil {
		return err
	}
	if err := checkAttribution(s, t, "reloaded study"); err != nil {
		return err
	}
	return checkFigures(figs, t)
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
