package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tlsage/internal/core"
)

// smallConfig shrinks every workload to one short round.
func smallConfig() config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.setups = 1
	cfg.maxRounds = 1
	cfg.studyConns = 30
	cfg.poolConns = 40
	cfg.frameRecords = 256
	cfg.framesPerPost = 2
	cfg.queryPool = 2048
	cfg.liveQueries = 200
	return cfg
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	return len(ents)
}

// settle waits, up to a deadline, for the goroutine and descriptor counts
// to come back to their starting level, then fails if they did not.
func settle(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs(t)
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("after the run: %d goroutines (started with %d), %d descriptors (started with %d)\n%s",
				g, goroutines, f, fds, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runHygienic runs wl the way the command does and checks that nothing it
// opened survives: goroutines and descriptors back to their starting
// level, no listener still accepting, the temporary directory gone.
func runHygienic(t *testing.T, wl workload, cfg config) (result, error) {
	t.Helper()
	dir := t.TempDir()
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	e, err := newEnv(dir, cfg.trace)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := runWorkload(e, wl, cfg)
	if err := e.close(); err != nil {
		t.Errorf("closing the run: %v", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	settle(t, goroutines, fds)
	for _, addr := range e.lns.list() {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("left behind in the output directory: %v", ents)
	}
	return res, runErr
}

func TestWorkloadsCleanUp(t *testing.T) {
	for _, name := range []string{"study", "ingest", "dashboard", "live"} {
		t.Run(name, func(t *testing.T) {
			res, err := runHygienic(t, workloads[name], smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			for _, m := range []string{"setup_s", "work_per_s", "p50_ms", "tail_ms", "heap_mb"} {
				if v, ok := res.Metrics[m]; !ok || v.Value == 0 {
					t.Errorf("metric %s = %+v", m, v)
				}
			}
			wantFailed := int64(0)
			if name == "ingest" {
				// The lost-ack re-push after a core restart, once per round.
				wantFailed = 1
			}
			if res.Failed != wantFailed {
				t.Errorf("failed = %d, want %d", res.Failed, wantFailed)
			}
		})
	}
}

// A failed check ends the run early; everything must still be released.
func TestFailedCheckCleansUp(t *testing.T) {
	for _, name := range []string{"ingest", "live"} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.skew = 1
			_, err := runHygienic(t, workloads[name], cfg)
			var ce *checkError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v, want a failed check", err)
			}
		})
	}
}

// A panic inside a workload is turned into an error and its servers are
// closed.
func TestPanicCleansUp(t *testing.T) {
	boom := func(e *env, cfg config) (*outcome, error) {
		if _, err := e.serveHTTP("doomed", http.NotFoundHandler()); err != nil {
			return nil, err
		}
		if _, err := e.tempDir("doomed-"); err != nil {
			return nil, err
		}
		panic("boom")
	}
	_, err := runHygienic(t, boom, smallConfig())
	if err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("error %v, want the panic", err)
	}
}

// The checker must catch a deliberately wrong answer in each of its
// checks.
func TestCheckerCatchesWrongAnswers(t *testing.T) {
	cfg := smallConfig()
	e, err := newEnv(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	in, err := generate(cfg, cfg.poolConns, true)
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewLiveStudy()
	shard := study.NewShard()
	for _, r := range in.recs {
		shard.Add(r)
	}
	if err := study.MergeShard(shard); err != nil {
		t.Fatal(err)
	}
	honest := studyAsker(study)
	if err := checkStudy(honest, in.tally, "honest"); err != nil {
		t.Fatalf("the right answers fail the check: %v", err)
	}
	if err := checkAttribution(study, in.tally, "honest"); err != nil {
		t.Fatalf("the right attribution fails the check: %v", err)
	}

	// Each lie changes one number of one answer.
	lies := map[string]func(q string, a *answer){
		"a month of version:tls12 counts one more": func(q string, a *answer) {
			if q == "version:tls12" {
				a.Series.Points[len(a.Series.Points)/2].Value++
			}
		},
		"a percentage off by a little": func(q string, a *answer) {
			if q == "pct(version:tls10 / established)" {
				a.Series.Points[0].Value += 1e-6
			}
		},
		"version:* not adding up to established": func(q string, a *answer) {
			if q == "version:*" {
				a.Series.Points[3].Value--
			}
		},
		"a month missing": func(q string, a *answer) {
			if q == "total" {
				a.Series.Points = a.Series.Points[1:]
			}
		},
		"fingerprinted records miscounted": func(q string, a *answer) {
			if q == "count(fp-conns)" {
				a.Value++
			}
		},
	}
	for name, lie := range lies {
		liar := func(q string) (answer, []byte, error) {
			a, body, err := honest(q)
			if err == nil {
				lie(q, &a)
			}
			return a, body, err
		}
		var ce *checkError
		if err := checkStudy(liar, in.tally, "liar"); !errors.As(err, &ce) {
			t.Errorf("%s: check returned %v, want a failed check", name, err)
		}
	}

	// A predicted scalar, a percentage out of range, Figure 1 and the body
	// bookkeeping.
	q := oracleQuery{kind: 'c', col: "established"}
	a, _, err := honest(q.text())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOracle(a, q, in.tally); err != nil {
		t.Fatalf("right scalar fails: %v", err)
	}
	a.Value++
	if err := checkOracle(a, q, in.tally); err == nil {
		t.Error("a wrong scalar passed")
	}
	if err := checkPercent(answer{Kind: "scalar", Value: 100.5}); err == nil {
		t.Error("a percentage above 100 passed")
	}
	figs, err := study.Figures()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(figs)
	if err := checkFigures(body, in.tally); err != nil {
		t.Fatalf("right figures fail: %v", err)
	}
	figs[0].Series[3].Points[5].Value += 0.5
	body, _ = json.Marshal(figs)
	if err := checkFigures(body, in.tally); err == nil {
		t.Error("a wrong Figure 1 passed")
	}
	seen := newBodies()
	if _, err := seen.see("q", 5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := seen.see("q", 5, []byte("b")); err == nil {
		t.Error("a hit differing from its miss passed")
	}
	if _, err := seen.see("q", 4, []byte("a")); err == nil {
		t.Error("a generation going backwards passed")
	}
}

// The traced run reports every per-layer metric, writes its spans and
// computes self times.
func TestTracedRun(t *testing.T) {
	cfg := smallConfig()
	cfg.trace = true
	e, err := newEnv(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(e, workloads["live"], cfg)
	if cerr := e.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(bench.PerLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bench.PerLayer))
	}
	for _, m := range bench.PerLayer {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s (%s): got %+v", m.Name, m.Unit, got)
		}
	}
	self := e.tr.selfTimes()
	if self["workload client.query"] <= 0 || self["workload service.query_handler"] <= 0 {
		t.Errorf("self times missing the query layers: %v", self)
	}
	path, err := e.tr.writeFile(t.TempDir(), "live", cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(b, []byte(`"name":"service.query_handler"`)) {
		t.Errorf("trace file %s lacks the handler spans (%v)", path, err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

// The tail is the same rank whatever the number of samples, so a faster
// program, which gathers more samples in a run, reads the same percentile.
func TestTailRankIsFixed(t *testing.T) {
	for _, n := range []int{100, 200, 1000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n-i) * time.Millisecond
		}
		sortDurations(ds)
		if got, want := quantile(ds, 0.95), time.Duration(n*95/100)*time.Millisecond; got != want {
			t.Errorf("p95 of 1..%d ms = %v, want %v", n, got, want)
		}
	}
}
