package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/core"
	"tlsage/internal/federation"
	"tlsage/internal/notary"
	"tlsage/internal/service"
)

// ingestInputs is the ingest workload's set-up: the pool as POST bodies of
// framesPerPost binary frames, and the tally of one round, in which both
// feeders send the whole pool.
type ingestInputs struct {
	in     *inputs
	bodies [][]byte
	counts []int // records per body
	round  *tally
}

func setUpIngest(cfg config) (*ingestInputs, error) {
	in, err := generate(cfg, cfg.poolConns, true)
	if err != nil {
		return nil, err
	}
	ii := &ingestInputs{in: in, round: newTally()}
	per := cfg.frameRecords * cfg.framesPerPost
	for i := 0; i < len(in.recs); i += per {
		recs := in.recs[i:min(i+per, len(in.recs))]
		ii.bodies = append(ii.bodies, bytes.Join(frames(recs, cfg.frameRecords), nil))
		ii.counts = append(ii.counts, len(recs))
	}
	ii.round.addTally(in.tally)
	ii.round.addTally(in.tally)
	in.recs = nil // framed; the copies would only add to the program's GC work
	return ii, nil
}

// runIngest is the production write path. Each round starts an edge set up
// as serve -queue-bound -out -snapshot-dir -upstream would set it up (merge
// queue, durable log tee, snapshots, a Pusher shipping deltas to an
// in-process core); two feeders each stream the whole pool to it over POST
// /ingest; the round's throughput is the records sent over the time from
// the first byte to the core's generation reaching them. The edge is then
// closed and recovered with RecoverStudy, and the core restarted from its
// snapshot and sent the edge's last acknowledged delta again, as after a
// lost ack. The core must answer that as a duplicate; it does not yet (the
// per-source cursors are not part of the snapshot), so that operation
// fails in every round and is counted in failed.
func runIngest(e *env, cfg config) (*outcome, error) {
	ii, setup, err := setUp(e, cfg, func(*env) (*ingestInputs, error) { return setUpIngest(cfg) })
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, tailQ: 0.95}
	o.note("%s", ii.in.describe())
	client := e.newClient(2)
	var recover []float64
	var kept []*core.Study
	start := time.Now()
	for round := 0; cfg.more(start, round); round++ {
		r, err := ingestRound(e, cfg, ii, client, o)
		if err != nil {
			return o, err
		}
		o.rates = append(o.rates, float64(ii.round.n)/r.visible.Seconds())
		recover = append(recover, r.recover.Seconds())
		kept = r.studies
	}
	o.heapMB = heapMB()
	runtime.KeepAlive(kept)
	o.note("ingest: %d records per round, %d rounds, median %.0f rec/s visible at the core, recover_s median %.4f; lost-ack re-push after a core restart failed %d times",
		ii.round.n, len(o.rates), median(o.rates), median(recover), o.failed)
	return o, nil
}

// roundResult is what one ingest round measured. studies are the recovered
// edge and core, kept for the heap reading.
type roundResult struct {
	visible, recover time.Duration
	studies          []*core.Study
}

func ingestRound(e *env, cfg config, ii *ingestInputs, client *http.Client, o *outcome) (roundResult, error) {
	var res roundResult
	re := e.scope()
	defer re.close()
	dir, err := re.tempDir("ingest-")
	if err != nil {
		return res, err
	}
	edgeSnaps, coreSnaps := filepath.Join(dir, "edge-snapshots"), filepath.Join(dir, "core-snapshots")
	logPath := filepath.Join(dir, "edge.log")
	for _, d := range []string{edgeSnaps, coreSnaps} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return res, err
		}
	}
	cache := analysis.NewQueryCache(cfg.cacheEntries, cfg.cacheBytes)

	// The core: a durable study that edges push into.
	coreStudy := core.NewLiveStudy()
	coreOpts := append(servedOptions(cache, "core"),
		service.WithDurability(service.DurabilityOptions{Dir: coreSnaps, Logf: logf}))
	coreSrv := service.NewServer(coreStudy, coreOpts...)
	closeCore := re.onClose("core server", coreSrv.Close)
	coreHTTP, err := re.serveHTTP("core", traceHandler(e.tr, coreSrv.Handler()))
	if err != nil {
		return res, err
	}

	// The edge: merge queue, durable log tee, snapshots and a pusher.
	pushes := newPushRecorder(re, e.tr)
	pusher, err := federation.NewPusher(federation.PusherOptions{
		Source:    "edge",
		Upstream:  coreHTTP.url,
		Interval:  cfg.pushInterval,
		StatePath: filepath.Join(edgeSnaps, "shipped.gen"),
		Client:    &http.Client{Transport: pushes, Timeout: 30 * time.Second},
		Logf:      logf,
	})
	if err != nil {
		return res, err
	}
	re.onClose("pusher", pusher.Close)
	logFile, err := service.OpenIngestLog(logPath, 0, true, 0)
	if err != nil {
		return res, err
	}
	closeLog := re.onClose("edge log", logFile.Close)
	edgeOpts := append(servedOptions(cache, "edge"),
		service.WithLogSink(notary.NewLogWriter(logFile)),
		service.WithDurability(service.DurabilityOptions{Dir: edgeSnaps, EveryRecords: 50000, Logf: logf}),
		service.WithPusher(pusher))
	edgeSrv := service.NewServer(core.NewLiveStudy(), edgeOpts...)
	closeEdge := re.onClose("edge server", edgeSrv.Close)
	edgeHTTP, err := re.serveHTTP("edge", traceHandler(e.tr, edgeSrv.Handler()))
	if err != nil {
		return res, err
	}

	// Two feeders, each the whole pool: one in order, one in reverse.
	want := uint64(ii.round.n)
	round := e.tr.begin("ingest.round", 0) // until the core has every record
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	lats := make([][]time.Duration, 2)
	for f := 0; f < 2; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ii.bodies {
				b := i
				if f == 1 {
					b = len(ii.bodies) - 1 - i
				}
				d, err := postIngest(e, round.id, client, edgeHTTP.url, ii.bodies[b], ii.counts[b])
				if err != nil {
					errs[f] = err
					return
				}
				lats[f] = append(lats[f], d)
				if e.tr != nil {
					recordHealth(e, client, edgeHTTP.url)
				}
			}
		}()
	}
	wg.Wait()
	o.attempted += int64(2 * len(ii.bodies))
	for f := range errs {
		if errs[f] != nil {
			return res, errs[f]
		}
		o.lat = append(o.lat, lats[f]...)
	}
	o.attempted++ // the records reaching the core
	if err := waitGeneration(coreStudy, want, 30*time.Second); err != nil {
		return res, err
	}
	res.visible = time.Since(t0)
	round.endN(int64(want))
	e.tr.value("federation.deltas", float64(pushes.acked()))

	// Close the edge and recover it from its snapshots and log tail.
	o.attempted += 2
	if err := edgeHTTP.stop.close(); err != nil {
		return res, err
	}
	if err := closeEdge.close(); err != nil {
		return res, err
	}
	if err := closeLog.close(); err != nil {
		return res, err
	}
	sp := e.tr.begin("service.RecoverStudy", 0)
	t1 := time.Now()
	edge, info, err := service.RecoverStudy(edgeSnaps, logPath, logf)
	res.recover = time.Since(t1)
	sp.endN(int64(info.Records()))
	if err != nil {
		return res, failf("recovering the edge: %v", err)
	}
	if err := checkStudy(studyAsker(edge), ii.round, "recovered edge"); err != nil {
		return res, err
	}
	if err := checkAttribution(edge, ii.round, "recovered edge"); err != nil {
		return res, err
	}
	if err := checkStudy(httpAsker(e, client, coreHTTP.url), ii.round, "core"); err != nil {
		return res, err
	}
	if err := checkAttribution(coreStudy, ii.round, "core"); err != nil {
		return res, err
	}

	// Restart the core from its snapshot and re-send the last acked delta.
	o.attempted += 2
	last := pushes.lastAcked()
	if last == nil {
		return res, fmt.Errorf("the edge pushed no delta")
	}
	if err := coreHTTP.stop.close(); err != nil {
		return res, err
	}
	if err := closeCore.close(); err != nil {
		return res, err
	}
	restarted, _, err := service.RecoverStudy(coreSnaps, "", logf)
	if err != nil {
		return res, failf("recovering the core: %v", err)
	}
	srv2 := service.NewServer(restarted, servedOptions(cache, "core2")...)
	re.onClose("restarted core server", srv2.Close)
	core2HTTP, err := re.serveHTTP("restarted core", srv2.Handler())
	if err != nil {
		return res, err
	}
	ack, status, err := postDelta(client, core2HTTP.url, last)
	if err != nil {
		return res, err
	}
	_, _, gen, err := restarted.Counts()
	if err != nil {
		return res, err
	}
	if status != http.StatusOK || !ack.Duplicate || gen != want {
		o.failed++
		if o.failed == 1 {
			o.note("FAILED lost-ack re-push after a core restart: status %d, duplicate %v, generation %d → %d",
				status, ack.Duplicate, want, gen)
		}
	}
	res.studies = []*core.Study{edge, restarted}
	return res, nil
}

// waitGeneration polls a study until its generation reaches want.
func waitGeneration(s *core.Study, want uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		_, _, gen, err := s.Counts()
		if err != nil {
			return err
		}
		switch {
		case gen == want:
			return nil
		case gen > want:
			return failf("core generation %d passed the %d records sent", gen, want)
		case time.Now().After(deadline):
			return fmt.Errorf("core generation %d of %d after %v", gen, want, limit)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// postDelta re-sends an encoded delta frame to POST /merge.
func postDelta(c *http.Client, base string, frame []byte) (federation.MergeAck, int, error) {
	var ack federation.MergeAck
	resp, err := c.Post(base+"/merge", federation.ContentTypeDelta, bytes.NewReader(frame))
	if err != nil {
		return ack, 0, fmt.Errorf("POST /merge: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ack, 0, fmt.Errorf("POST /merge: %w", err)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return ack, resp.StatusCode, failf("POST /merge answered %d %q", resp.StatusCode, body)
	}
	return ack, resp.StatusCode, nil
}

// recordHealth reads the edge's /healthz for the queue-depth and shed
// gauges of the traced run.
func recordHealth(e *env, c *http.Client, base string) {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var h struct {
		Shed  float64 `json:"shed"`
		Queue struct {
			Depth float64 `json:"depth"`
			Shed  float64 `json:"shed_full"`
		} `json:"ingest_queue"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) == nil {
		e.tr.value("service.queue_depth", h.Queue.Depth)
		e.tr.value("service.shed", h.Shed+h.Queue.Shed)
	}
}

// pushRecorder is the edge pusher's RoundTripper: it times each POST
// /merge and keeps the last delta the core acknowledged.
type pushRecorder struct {
	next *http.Transport
	tr   *tracer
	mu   sync.Mutex
	last []byte
	acks int
}

func newPushRecorder(e *env, tr *tracer) *pushRecorder {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	e.onClose("pusher transport", func() error {
		t.CloseIdleConnections()
		return nil
	})
	return &pushRecorder{next: t, tr: tr}
}

func (p *pushRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	sp := p.tr.begin("federation.push", 0)
	resp, err := p.next.RoundTrip(out)
	sp.end()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		p.mu.Lock()
		p.last, p.acks = body, p.acks+1
		p.mu.Unlock()
		if p.tr != nil {
			if d, err := federation.DecodeDelta(body); err == nil && d.Records() > 0 {
				p.tr.value("federation.delta_bytes_per_rec", float64(len(body))/float64(d.Records()))
			}
		}
	}
	return resp, nil
}

func (p *pushRecorder) lastAcked() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

func (p *pushRecorder) acked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acks
}
