package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/fingerprint"
	"tlsage/internal/notary"
	"tlsage/internal/service"
)

// probeConns sizes the probes' own record pool (records per month).
const probeConns = 200

// runProbes times, from the benchmark's side, each public call a per-layer
// metric names, on a seeded pool of its own: the codecs, Add and Merge,
// snapshots, frame build, compile/eval/encode, figures, the study's query
// and merge paths, snapshot writes and log tails, delta codecs, one ingest
// round and a short dashboard session over loopback. Spans land in the
// "probe" phase; a metric the workload itself measured keeps the
// workload's number.
func runProbes(e *env, cfg config) error {
	defer e.tr.setPhase(e.tr.setPhase("probe"))
	pe := e.scope()
	defer pe.close()
	pcfg := cfg
	pcfg.poolConns, pcfg.setups, pcfg.maxRounds = probeConns, 1, 1
	in, err := generate(pcfg, probeConns, true)
	if err != nil {
		return err
	}
	tr := e.tr
	n := int64(len(in.recs))
	discard := notary.SinkFunc(func(*notary.Record) error { return nil })

	// The simulator alone, into a sink that drops every record; the
	// benchmark's tally and record copies above stay outside any span.
	sp := tr.begin("simulate.Run", 0)
	err = newSimulator(pcfg, probeConns).Run(discard)
	sp.endN(n)
	if err != nil {
		return err
	}

	var tsv bytes.Buffer
	lw := notary.NewLogWriter(&tsv)
	sp = tr.begin("notary.LogWriter", 0)
	for _, r := range in.recs {
		if err := lw.Write(r); err != nil {
			return err
		}
	}
	err = lw.Flush()
	sp.endN(n)
	if err != nil {
		return err
	}
	sp = tr.begin("notary.ReadLog", 0)
	err = notary.ReadLog(bytes.NewReader(tsv.Bytes()), discard)
	sp.endN(n)
	if err != nil {
		return err
	}
	stream := bytes.Join(frames(in.recs, notary.DefaultBatchSize), nil)
	sp = tr.begin("notary.ReadBatches", 0)
	_, _, err = notary.ReadBatches(bytes.NewReader(stream), discard)
	sp.endN(n)
	if err != nil {
		return err
	}

	db := fingerprint.BuildDefault()
	full := notary.NewAggregate()
	full.SetClassifier(db)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.begin("notary.Aggregate.Add", 0)
	for _, r := range in.recs {
		full.Add(r)
	}
	sp.endN(n)
	runtime.ReadMemStats(&after)
	tr.value("notary.add_allocs_per_rec", float64(after.Mallocs-before.Mallocs)/float64(n))

	// Shards of the service's flush size, merged into a populated aggregate.
	var shards []*notary.Aggregate
	for i := 0; i < len(in.recs); i += service.DefaultFlushEvery {
		s := notary.NewAggregate()
		s.SetClassifier(db)
		for _, r := range in.recs[i:min(i+service.DefaultFlushEvery, len(in.recs))] {
			s.Add(r)
		}
		shards = append(shards, s)
	}
	populated, err := notary.DecodeSnapshot(notary.EncodeSnapshot(nil, full))
	if err != nil {
		return err
	}
	for _, s := range shards {
		sp = tr.begin("notary.Aggregate.Merge", 0)
		populated.Merge(s)
		sp.endN(int64(s.Generation()))
	}
	var snap []byte
	for i := 0; i < 3; i++ {
		sp = tr.begin("notary.EncodeSnapshot", 0)
		snap = notary.EncodeSnapshot(nil, full)
		sp.end()
		sp = tr.begin("notary.DecodeSnapshot", 0)
		_, err = notary.DecodeSnapshot(snap)
		sp.end()
		if err != nil {
			return err
		}
	}
	tr.value("notary.snapshot_bytes", float64(len(snap)))
	var delta []byte
	for i := 0; i < 3; i++ {
		sp = tr.begin("federation.EncodeDelta", 0)
		delta, err = federation.EncodeDelta(&federation.Delta{Source: "probe", Agg: full})
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("federation.DecodeDelta", 0)
		_, err = federation.DecodeDelta(delta)
		sp.end()
		if err != nil {
			return err
		}
	}
	tr.value("federation.delta_bytes_per_rec", float64(len(delta))/float64(n))

	var f *analysis.Frame
	for i := 0; i < 5; i++ {
		sp = tr.begin("analysis.NewFrame", 0)
		f = analysis.NewFrame(full)
		sp.end()
	}
	for _, q := range buildQueryPool(in.tally, 512, cfg.seed) {
		e, err := analysis.ParseQuery(q.text)
		if err != nil {
			return err
		}
		sp = tr.begin("analysis.Compile", 0)
		p, err := analysis.Compile(e, f)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("analysis.Plan.Eval", 0)
		res := p.Eval()
		sp.end()
		sp = tr.begin("analysis.QueryResult.EncodeJSONBody", 0)
		_, err = res.EncodeJSONBody()
		sp.end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		sp = tr.begin("analysis.Frame.Figures", 0)
		figs := f.Figures()
		sp.end()
		// As the service's JSON writer encodes them.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		sp = tr.begin("analysis.figures_encode", 0)
		err = enc.Encode(figs)
		sp.end()
		if err != nil {
			return err
		}
	}

	if err := probeDurability(pe, in); err != nil {
		return err
	}
	// One ingest round and a short dashboard session, for the service and
	// federation spans of workloads that do not reach them.
	ii, err := setUpIngest(pcfg)
	if err != nil {
		return err
	}
	client := pe.newClient(2)
	if _, err := ingestRound(pe, pcfg, ii, client, &outcome{}); err != nil {
		return fmt.Errorf("probe ingest round: %w", err)
	}
	if _, err := runDashboard(pe, pcfg); err != nil {
		return fmt.Errorf("probe dashboard: %w", err)
	}
	// Last, so its cache counters are the probes' reading.
	return probeStudy(pe, cfg, in, shards)
}

// probeStudy times the study's query path (hits and misses through the
// result cache) and MergeShard while a reader queries.
func probeStudy(e *env, cfg config, in *inputs, shards []*notary.Aggregate) error {
	tr := e.tr
	study := core.NewLiveStudy()
	for _, s := range shards {
		if err := study.MergeShard(s); err != nil {
			return err
		}
	}
	cache := analysis.NewQueryCache(cfg.cacheEntries, cfg.cacheBytes)
	study.SetQueryCache(cache, "probe")
	pool := buildQueryPool(in.tally, cfg.queryPool, cfg.seed)
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), 1.1, 1, uint64(len(pool)-1))
	for i := 0; i < 5000; i++ {
		sp := tr.begin("core.Study.QueryInfoJSON", 0)
		_, _, _, hit, err := study.QueryInfoJSON(pool[zipf.Uint64()].text)
		sp.end()
		if err != nil {
			return err
		}
		if hit {
			sp.rename("core.query_hit")
		} else {
			sp.rename("core.query_miss")
		}
	}
	s := cache.Stats()
	tr.value("analysis.cache_lookups", float64(s.Hits+s.Misses))
	tr.value("analysis.cache_hit_ratio", float64(s.Hits)/float64(s.Hits+s.Misses))
	tr.value("analysis.cache_evictions", float64(s.Evictions))
	tr.value("core.plan_compiles", float64(study.PlanCompiles()))

	var stop atomic.Bool
	var wg sync.WaitGroup
	var qerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, _, _, _, err := study.QueryInfoJSON(pool[i%64].text); err != nil {
				qerr = err
				return
			}
		}
	}()
	for _, s := range shards {
		sp := tr.begin("core.Study.MergeShard", 0)
		err := study.MergeShard(s)
		sp.end()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return err
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	return qerr
}

// probeDurability times snapshot writes, a log tail past a snapshot, and
// the recovery that combines the two.
func probeDurability(e *env, in *inputs) error {
	tr := e.tr
	dir, err := e.tempDir("probe-durability-")
	if err != nil {
		return err
	}
	half := core.NewLiveStudy()
	shard := half.NewShard()
	for _, r := range in.recs[:len(in.recs)/2] {
		shard.Add(r)
	}
	if err := half.MergeShard(shard); err != nil {
		return err
	}
	snaps := filepath.Join(dir, "snapshots")
	for i := 0; i < 3; i++ {
		sp := tr.begin("service.WriteStudySnapshot", 0)
		_, _, err := service.WriteStudySnapshot(snaps, half, 3)
		sp.end()
		if err != nil {
			return err
		}
	}
	logPath := filepath.Join(dir, "notary_conn.log")
	var tsv bytes.Buffer
	lw := notary.NewLogWriter(&tsv)
	for _, r := range in.recs {
		if err := lw.Write(r); err != nil {
			return err
		}
	}
	if err := lw.Flush(); err != nil {
		return err
	}
	if err := os.WriteFile(logPath, tsv.Bytes(), 0o644); err != nil {
		return err
	}
	skip := uint64(len(in.recs) / 2)
	for i := 0; i < 3; i++ {
		sp := tr.begin("notary.ReadLogTail", 0)
		n, _, err := notary.ReadLogTail(bytes.NewReader(tsv.Bytes()), skip, notary.NewAggregate())
		sp.endN(int64(n))
		if err != nil {
			return err
		}
		sp = tr.begin("service.RecoverStudy", 0)
		_, info, err := service.RecoverStudy(snaps, logPath, logf)
		sp.endN(int64(info.Records()))
		if err != nil {
			return err
		}
	}
	return nil
}

// --- per-layer metrics ---

// layerMetric derives one per-layer metric from the trace.
type layerMetric struct {
	name, unit string
	value      func(t *tracer) (float64, bool)
}

var layerTable = []layerMetric{
	{"simulate.rec_per_s", "rec/s", rate("simulate.Run")},
	{"notary.tsv_encode_ns_per_rec", "ns", perUnit("notary.LogWriter")},
	{"notary.tsv_decode_ns_per_rec", "ns", perUnit("notary.ReadLog")},
	{"notary.binary_decode_ns_per_rec", "ns", perUnit("notary.ReadBatches")},
	{"notary.add_ns_per_rec", "ns", perUnit("notary.Aggregate.Add")},
	{"notary.add_allocs_per_rec", "count", reading("notary.add_allocs_per_rec", medianOf)},
	{"notary.merge_us_per_shard", "us", medianSpan("notary.Aggregate.Merge", time.Microsecond)},
	{"notary.snapshot_encode_ms", "ms", medianSpan("notary.EncodeSnapshot", time.Millisecond)},
	{"notary.snapshot_decode_ms", "ms", medianSpan("notary.DecodeSnapshot", time.Millisecond)},
	{"notary.snapshot_bytes", "bytes", reading("notary.snapshot_bytes", medianOf)},
	{"analysis.frame_build_ms", "ms", medianSpan("analysis.NewFrame", time.Millisecond)},
	{"analysis.compile_us", "us", medianSpan("analysis.Compile", time.Microsecond)},
	{"analysis.eval_us", "us", medianSpan("analysis.Plan.Eval", time.Microsecond)},
	{"analysis.query_encode_us", "us", medianSpan("analysis.QueryResult.EncodeJSONBody", time.Microsecond)},
	{"analysis.cache_hit_ratio", "ratio", reading("analysis.cache_hit_ratio", lastOf)},
	{"analysis.cache_lookups", "count", reading("analysis.cache_lookups", lastOf)},
	{"analysis.cache_evictions", "count", reading("analysis.cache_evictions", lastOf)},
	{"analysis.figures_eval_us", "us", medianSpan("analysis.Frame.Figures", time.Microsecond)},
	{"analysis.figures_encode_ms", "ms", medianSpan("analysis.figures_encode", time.Millisecond)},
	{"core.merge_shard_us", "us", medianSpan("core.Study.MergeShard", time.Microsecond)},
	{"core.query_hit_us", "us", medianSpan("core.query_hit", time.Microsecond)},
	{"core.query_miss_us", "us", medianSpan("core.query_miss", time.Microsecond)},
	{"core.plan_compiles", "count", reading("core.plan_compiles", lastOf)},
	{"service.query_handler_us", "us", medianSpan("service.query_handler", time.Microsecond)},
	{"service.query_http_us", "us", httpOverhead("client.query", "service.query_handler")},
	{"service.figures_handler_ms", "ms", medianSpan("service.figures_handler", time.Millisecond)},
	{"service.ingest_handler_ms", "ms", medianSpan("service.ingest_handler", time.Millisecond)},
	{"service.queue_depth_max", "count", reading("service.queue_depth", maxOf)},
	{"service.shed", "count", reading("service.shed", maxOf)},
	{"service.snapshot_write_ms", "ms", medianSpan("service.WriteStudySnapshot", time.Millisecond)},
	{"service.log_tail_ms", "ms", medianSpan("notary.ReadLogTail", time.Millisecond)},
	{"service.recover_ms", "ms", medianSpan("service.RecoverStudy", time.Millisecond)},
	{"federation.push_rtt_ms", "ms", medianSpan("federation.push", time.Millisecond)},
	{"federation.delta_bytes_per_rec", "bytes", reading("federation.delta_bytes_per_rec", medianOf)},
	{"federation.delta_encode_ms", "ms", medianSpan("federation.EncodeDelta", time.Millisecond)},
	{"federation.delta_decode_ms", "ms", medianSpan("federation.DecodeDelta", time.Millisecond)},
	{"federation.deltas", "count", reading("federation.deltas", medianOf)},
}

// layerMetrics evaluates every per-layer metric; one the trace cannot give
// is reported on stderr and left out.
func layerMetrics(t *tracer) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerTable {
		v, ok := m.value(t)
		if !ok {
			fmt.Fprintf(os.Stderr, "notarybench: no trace data for %s\n", m.name)
			continue
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

func rate(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		var n int64
		var d time.Duration
		for _, s := range t.closed(name) {
			n += s.N
			d += s.dur()
		}
		return float64(n) / d.Seconds(), d > 0
	}
}

func perUnit(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		var n int64
		var d time.Duration
		for _, s := range t.closed(name) {
			n += s.N
			d += s.dur()
		}
		return float64(d.Nanoseconds()) / float64(n), n > 0
	}
}

func medianSpan(name string, unit time.Duration) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		ss := t.closed(name)
		ds := make([]float64, len(ss))
		for i, s := range ss {
			ds[i] = float64(s.dur()) / float64(unit)
		}
		return median(ds), len(ds) > 0
	}
}

// httpOverhead is the median of client time minus the nested handler's
// time: what HTTP and the loopback add to a request.
func httpOverhead(client, handler string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		t.mu.Lock()
		inner := map[int32]time.Duration{}
		for _, s := range t.spans {
			if s.Name == handler && s.End > 0 && s.Parent != 0 {
				inner[s.Parent] = s.dur()
			}
		}
		t.mu.Unlock()
		var ds []float64
		for _, s := range t.closed(client) {
			if h, ok := inner[s.ID]; ok {
				ds = append(ds, float64(s.dur()-h)/float64(time.Microsecond))
			}
		}
		return median(ds), len(ds) > 0
	}
}

func reading(name string, agg func([]float64) float64) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		v := t.readings(name)
		if len(v) == 0 {
			return 0, false
		}
		return agg(v), true
	}
}

func medianOf(v []float64) float64 { return median(v) }
func lastOf(v []float64) float64   { return v[len(v)-1] }
func maxOf(v []float64) float64 {
	sort.Float64s(v)
	return v[len(v)-1]
}
