package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workload runs set-up and the measured rounds of one workload and reports
// what it observed.
type workload func(e *env, cfg config) (*outcome, error)

var workloads = map[string]workload{
	"study":     runStudy,
	"ingest":    runIngest,
	"dashboard": runDashboard,
	"live":      runLive,
}

// outcome is what one workload run observed.
type outcome struct {
	setup     []float64 // seconds per set-up
	heapMB    float64   // live heap at the end, the workload's state still held
	attempted int64
	failed    int64
	rates     []float64       // units of work completed per second, per round
	lat       []time.Duration // the workload's operation latencies, pooled
	// tailQ is the quantile tail_ms reports. It is fixed per workload, so
	// the rank does not move with the number of samples a run gathers,
	// which grows as the program gets faster.
	tailQ float64
	// p50s and tails are per-round latency quantiles, for workloads whose
	// rounds hold enough samples for a tail of their own; the run reports
	// their medians, so a burst of host contention spoils a few rounds
	// rather than the run.
	p50s, tails []float64
	notes       []string // workload-specific figures for stderr
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// endRound files a round's latencies: its own quantiles, and the pooled
// samples.
func (o *outcome) endRound(lat []time.Duration) {
	o.lat = append(o.lat, lat...)
	sortDurations(lat)
	o.p50s = append(o.p50s, ms(quantile(lat, 0.5)))
	o.tails = append(o.tails, ms(quantile(lat, o.tailQ)))
}

// more reports whether a run that started at start and has finished round
// rounds starts another: for the measured time, or exactly maxRounds.
func (c config) more(start time.Time, round int) bool {
	if c.maxRounds > 0 {
		return round < c.maxRounds
	}
	return time.Since(start) < c.measure
}

// setUp runs fn cfg.setups times, each in its own scope, keeps the last
// state and closes the others. It returns the set-up times in seconds.
func setUp[T any](e *env, cfg config, fn func(*env) (T, error)) (T, []float64, error) {
	var st T
	var times []float64
	defer e.tr.setPhase(e.tr.setPhase("setup"))
	for i := 0; i < cfg.setups; i++ {
		se := e.scope()
		t0 := time.Now()
		s, err := fn(se)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return st, nil, err
		}
		if i < cfg.setups-1 {
			if err := se.close(); err != nil {
				return st, nil, err
			}
			continue
		}
		st = s
	}
	return st, times, nil
}

// heapMB is the live heap after full collections, in MiB. The second
// collection also frees what the first left in sync.Pool victim caches.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measureWorkload runs wl and turns its outcome into the result line: the
// end-to-end metrics, or with tracing the per-layer ones (after the probes
// have filled in the layers the workload does not reach).
func measureWorkload(e *env, wl workload, cfg config) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	o, err := wl(e, cfg)
	if o != nil {
		res.Attempted, res.Failed = o.attempted, o.failed
		for _, n := range o.notes {
			fmt.Fprintln(os.Stderr, n)
		}
	}
	if err != nil {
		return res, err
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("the workload attempted no operation")
	}
	sortDurations(o.lat)
	p50, tailMS := ms(quantile(o.lat, 0.5)), ms(quantile(o.lat, o.tailQ))
	how := fmt.Sprintf("p%.0f of %d pooled samples", 100*o.tailQ, len(o.lat))
	if len(o.tails) > 0 {
		p50, tailMS = median(o.p50s), median(o.tails)
		how = fmt.Sprintf("the median over %d rounds of each round's p%.0f (%d samples in all)",
			len(o.tails), 100*o.tailQ, len(o.lat))
	}
	e2e := map[string]metric{
		"setup_s":    {median(o.setup), "s"},
		"work_per_s": {median(o.rates), "1/s"},
		"p50_ms":     {p50, "ms"},
		"tail_ms":    {tailMS, "ms"},
		"heap_mb":    {o.heapMB, "MB"},
	}
	fmt.Fprintf(os.Stderr, "tail_ms is %s\n", how)
	if b, err := json.Marshal(map[string]any{"rates": o.rates, "p50s": o.p50s, "tails": o.tails}); err == nil {
		fmt.Fprintf(os.Stderr, "rounds: %s\n", b)
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}
	for k, v := range e2e {
		fmt.Fprintf(os.Stderr, "traced %s = %v %s\n", k, v.Value, v.Unit)
	}
	if err := runProbes(e, cfg); err != nil {
		return res, err
	}
	e.tr.report()
	res.Metrics = layerMetrics(e.tr)
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
