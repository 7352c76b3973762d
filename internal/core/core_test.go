package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/notary"
	"tlsage/internal/registry"
	"tlsage/internal/scanner"
	"tlsage/internal/timeline"
)

var (
	studyOnce sync.Once
	study     *Study
)

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study = NewStudy(300)
		if err := study.Run(nil); err != nil {
			panic(err)
		}
	})
	return study
}

func TestStudyLifecycle(t *testing.T) {
	s := NewStudy(10)
	if _, err := s.Figures(); err == nil {
		t.Error("figures before Run should error")
	}
	if _, err := s.Scalars(); err == nil {
		t.Error("scalars before Run should error")
	}
	if _, err := s.Table2(); err == nil {
		t.Error("table2 before Run should error")
	}
	if _, err := s.FingerprintDurations(); err == nil {
		t.Error("durations before Run should error")
	}
}

func TestStudyFiguresAndScalars(t *testing.T) {
	s := sharedStudy(t)
	figs, err := s.Figures()
	if err != nil || len(figs) != 10 {
		t.Fatalf("figures: %v (%d)", err, len(figs))
	}
	fig, err := s.Figure(1)
	if err != nil || fig.ID != "Figure 1" {
		t.Errorf("Figure(1): %v %s", err, fig.ID)
	}
	if _, err := s.Figure(0); err == nil {
		t.Error("Figure(0) should error")
	}
	if _, err := s.Figure(11); err == nil {
		t.Error("Figure(11) should error")
	}
	scalars, err := s.Scalars()
	if err != nil || len(scalars) < 15 {
		t.Errorf("scalars: %v (%d)", err, len(scalars))
	}
	rep, err := s.Table2()
	if err != nil || rep.TotalFPs == 0 {
		t.Errorf("table2: %v", err)
	}
	st, err := s.FingerprintDurations()
	if err != nil || st.Total == 0 {
		t.Errorf("durations: %v", err)
	}
	if s.Aggregate() == nil || s.FingerprintDB() == nil {
		t.Error("accessors nil after Run")
	}
}

func TestStudyLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewStudy(40)
	s.Options.End = timeline.M(2012, time.December)
	if err := s.Run(&buf); err != nil {
		t.Fatal(err)
	}
	direct := s.Aggregate().TotalRecords()

	var s2 Study
	if err := s2.LoadLog(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Aggregate().TotalRecords() != direct {
		t.Errorf("log reload: %d records, want %d", s2.Aggregate().TotalRecords(), direct)
	}
	// Monthly stats agree.
	m := timeline.M(2012, time.June)
	a, b := s.Aggregate().Stats(m), s2.Aggregate().Stats(m)
	if a.Total != b.Total || a.Established != b.Established || a.AdvRC4 != b.AdvRC4 {
		t.Error("reloaded aggregate differs")
	}
}

// LoadLog shards the TSV parse across Options.Workers; every width must
// rebuild the identical aggregate, and extra sinks teed into the run must
// see every record.
func TestStudyLoadLogParallelAndSinks(t *testing.T) {
	var buf bytes.Buffer
	s := NewStudy(40)
	s.Options.End = timeline.M(2013, time.June)
	seen := 0
	counter := notary.SinkFunc(func(r *notary.Record) error {
		if r.Date.Year == 0 {
			t.Error("sink saw an empty record")
		}
		seen++
		return nil
	})
	if err := s.RunSinks(&buf, counter); err != nil {
		t.Fatal(err)
	}
	direct := s.Aggregate().TotalRecords()
	if seen != direct {
		t.Errorf("teed sink saw %d records, aggregate has %d", seen, direct)
	}

	log := buf.Bytes()
	for _, workers := range []int{1, 2, 8} {
		var s2 Study
		s2.Options.Workers = workers
		if err := s2.LoadLog(bytes.NewReader(log)); err != nil {
			t.Fatal(err)
		}
		if got := s2.Aggregate().TotalRecords(); got != direct {
			t.Errorf("workers=%d: %d records, want %d", workers, got, direct)
		}
		m := timeline.M(2012, time.August)
		a, b := s.Aggregate().Stats(m), s2.Aggregate().Stats(m)
		if b == nil || a.Total != b.Total || a.Established != b.Established || a.AdvRC4 != b.AdvRC4 {
			t.Errorf("workers=%d: reloaded aggregate differs", workers)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if len(Table1()) != 6 {
		t.Error("Table 1 rows")
	}
	if len(Table3()) < 15 {
		t.Error("Table 3 rows")
	}
	if len(Table4()) < 10 {
		t.Error("Table 4 rows")
	}
	if len(Table5()) < 6 {
		t.Error("Table 5 rows")
	}
	if len(Table6()) < 10 {
		t.Error("Table 6 rows")
	}
}

func TestScanCampaignTwoSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("network farm test")
	}
	run := func(d timeline.Date) *CampaignReport {
		c := &ScanCampaign{Date: d, Hosts: 250, Workers: 24, Seed: 7, Timeout: 3 * time.Second}
		rep, err := c.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	sep15 := run(timeline.D(2015, time.September, 15))
	may18 := run(timeline.D(2018, time.May, 13))

	// §5.1: SSL3 support declines, in the paper's ranges.
	if got := sep15.SSL3SupportPct(); got < 34 || got > 58 {
		t.Errorf("SSL3 support Sep 2015 = %0.1f%%, want ≈45%%", got)
	}
	if got := may18.SSL3SupportPct(); got > 32 {
		t.Errorf("SSL3 support May 2018 = %0.1f%%, want <25%%", got)
	}
	if may18.SSL3SupportPct() >= sep15.SSL3SupportPct() {
		t.Error("SSL3 support should decline")
	}
	// §5.3: RC4 chosen declines ≈11.2% → ≈3.4%.
	if got := sep15.RC4ChosenPct(); got < 6 || got > 17 {
		t.Errorf("RC4 chosen Sep 2015 = %0.1f%%, want ≈11%%", got)
	}
	if got := may18.RC4ChosenPct(); got > 8 {
		t.Errorf("RC4 chosen May 2018 = %0.1f%%, want ≈3.4%%", got)
	}
	// §5.2: CBC chosen declines ≈54% → ≈35%.
	if got := sep15.CBCChosenPct(); got < 40 || got > 68 {
		t.Errorf("CBC chosen Sep 2015 = %0.1f%%, want ≈54%%", got)
	}
	if got := may18.CBCChosenPct(); got < 20 || got > 50 {
		t.Errorf("CBC chosen May 2018 = %0.1f%%, want ≈35%%", got)
	}
	// §5.4: heartbeat ≈34% in 2018; vulnerability ≈0.32% (sampling noise at
	// 250 hosts allows 0–2 hosts).
	if got := may18.HeartbeatSupportPct(); got < 18 || got > 50 {
		t.Errorf("heartbeat support 2018 = %0.1f%%, want ≈34%%", got)
	}
	if got := may18.HeartbleedVulnerablePct(); got > 3 {
		t.Errorf("Heartbleed vulnerable 2018 = %0.1f%%, want ≈0.3%%", got)
	}
	// Export support exists but is not universal.
	if got := sep15.ExportSupportPct(); got <= 0 || got > 60 {
		t.Errorf("export support Sep 2015 = %0.1f%%", got)
	}

	scalars := ScanScalars(sep15, may18)
	if len(scalars) != 11 {
		t.Fatalf("scan scalars: %d", len(scalars))
	}
	for _, s := range scalars {
		if s.ID == "" || s.Name == "" {
			t.Errorf("malformed scalar %+v", s)
		}
	}
}

func TestCampaignReportFracEmpty(t *testing.T) {
	r := &CampaignReport{}
	if r.Frac(5) != 0 {
		t.Error("empty report Frac should be 0")
	}
}

func TestHeartbleedCheckMatchesGroundTruth(t *testing.T) {
	// The live exploit check over the farm must find exactly the hosts the
	// population configured as unpatched.
	c := &ScanCampaign{Date: timeline.D(2014, time.April, 20), Hosts: 300, Workers: 24, Seed: 3}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.VulnerableHosts != rep.GroundTruthVulnerable {
		t.Errorf("exploit check found %d vulnerable hosts, ground truth %d",
			rep.VulnerableHosts, rep.GroundTruthVulnerable)
	}
	// Mid-April 2014: disclosure was days ago, patching underway but far
	// from done — a meaningful fraction must still be vulnerable.
	if rep.HeartbleedVulnerablePct() < 2 {
		t.Errorf("vulnerable ≈2 weeks after disclosure = %0.1f%%, want >2%%", rep.HeartbleedVulnerablePct())
	}
	if rep.VulnerableHosts > 0 && rep.LeakedBytes == 0 {
		t.Error("vulnerable hosts leaked no bytes")
	}
	// SSL-Pulse-style RC4 support: most hosts still answer RC4-only in 2014.
	if got := rep.RC4SupportPct(); got < 40 {
		t.Errorf("RC4 support Apr 2014 = %0.1f%%, want high", got)
	}
}

func TestExtensionFigureAndVariants(t *testing.T) {
	s := sharedStudy(t)
	fig, err := s.ExtensionFigure()
	if err != nil || fig.ID != "Figure E1" {
		t.Fatalf("extension figure: %v %s", err, fig.ID)
	}
	shares, err := s.TLS13Variants()
	if err != nil || len(shares) == 0 {
		t.Fatalf("variant shares: %v", err)
	}
	// §6.4: the Google experimental variant dominates advertised variants.
	if shares[0].Variant != registry.VersionTLS13Google {
		t.Errorf("top variant = %v, want 0x7e02", shares[0].Variant)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v.Share
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("variant shares sum to %0.1f", sum)
	}
	// Before Run, both error.
	var empty Study
	if _, err := empty.ExtensionFigure(); err == nil {
		t.Error("extension figure before Run should error")
	}
	if _, err := empty.TLS13Variants(); err == nil {
		t.Error("variants before Run should error")
	}
}

func TestPopularityWeightedCampaign(t *testing.T) {
	// The Alexa-style flavour samples the traffic universe: popular sites
	// are more modern, so SSL3 support is lower than in the host census.
	date := timeline.D(2016, time.June, 15)
	census := &ScanCampaign{Date: date, Hosts: 250, Workers: 24, Seed: 5}
	alexa := &ScanCampaign{Date: date, Hosts: 250, Workers: 24, Seed: 5, PopularityWeighted: true}
	cRep, err := census.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	aRep, err := alexa.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if aRep.SSL3SupportPct() >= cRep.SSL3SupportPct() {
		t.Errorf("Alexa SSL3 support (%0.1f%%) should be below census (%0.1f%%)",
			aRep.SSL3SupportPct(), cRep.SSL3SupportPct())
	}
	if aRep.RC4ChosenPct() > cRep.RC4ChosenPct() {
		t.Errorf("Alexa RC4 choice (%0.1f%%) should not exceed census (%0.1f%%)",
			aRep.RC4ChosenPct(), cRep.RC4ChosenPct())
	}
}

func TestScanSweepDeclines(t *testing.T) {
	sweep := &ScanSweep{
		Start:            timeline.M(2015, time.September),
		End:              timeline.M(2018, time.March),
		StepMonths:       10,
		HostsPerSnapshot: 180,
		Workers:          24,
		Seed:             11,
	}
	points, err := sweep.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d snapshots", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.SSL3Support >= first.SSL3Support {
		t.Errorf("SSL3 support should decline: %0.1f → %0.1f", first.SSL3Support, last.SSL3Support)
	}
	if last.RC4Supported >= first.RC4Supported {
		t.Errorf("RC4 support should decline: %0.1f → %0.1f", first.RC4Supported, last.RC4Supported)
	}
	if last.CBCChosen >= first.CBCChosen {
		t.Errorf("CBC choice should decline: %0.1f → %0.1f", first.CBCChosen, last.CBCChosen)
	}
	var buf bytes.Buffer
	if err := RenderSweep(&buf, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2015-09") {
		t.Error("sweep rendering incomplete")
	}
}

func TestStudyFrameCache(t *testing.T) {
	// Own study: this test mutates the aggregate, which must not leak into
	// the shared one.
	s := NewStudy(30)
	s.Options.End = timeline.M(2012, time.December)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	f1, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Frame rebuilt without any aggregate mutation")
	}
	// Mutating the aggregate through the public accessor must invalidate
	// the cached snapshot (the live-ingestion read path).
	donor := notary.NewAggregate()
	donor.Add(&notary.Record{Date: timeline.D(2012, time.March, 3)})
	s.Aggregate().Merge(donor)
	f3, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Error("stale frame served after aggregate mutation")
	}
	if f3.Generation() != s.Aggregate().Generation() {
		t.Error("rebuilt frame lags the aggregate generation")
	}
	var none Study
	if _, err := none.Frame(); err == nil {
		t.Error("Frame before Run should error")
	}
}

func TestStudyFigureByName(t *testing.T) {
	s := sharedStudy(t)
	fig, err := s.FigureByName("fingerprint-classes")
	if err != nil || fig.ID != "Figure 4" {
		t.Fatalf("FigureByName: %v %s", err, fig.ID)
	}
	ext, err := s.FigureByName("extensions")
	if err != nil || ext.ID != "Figure E1" {
		t.Fatalf("extensions figure: %v %s", err, ext.ID)
	}
	if upper, err := s.FigureByName("Fingerprint-Classes"); err != nil || upper.ID != "Figure 4" {
		t.Errorf("case-insensitive lookup: %v %s", err, upper.ID)
	}
	if _, err := s.FigureByName("nope"); err == nil {
		t.Error("unknown figure name should error")
	} else if !strings.Contains(err.Error(), "versions") {
		t.Errorf("miss error %q does not list the valid names", err)
	}
	impacts, err := s.Impacts()
	if err != nil || len(impacts) < 6 {
		t.Fatalf("Impacts: %v (%d rows)", err, len(impacts))
	}
}

// TestStudyQuery pins the ad-hoc query path: text and Expr forms answer
// identically, catalog-equivalent expressions match the figure engine, and
// errors surface for malformed input and unrun studies.
func TestStudyQuery(t *testing.T) {
	s := sharedStudy(t)
	res, err := s.Query("pct(version:tls12 / established)")
	if err != nil || res.Kind != "series" {
		t.Fatalf("Query: %v (%+v)", err, res.Kind)
	}
	fig, err := s.Figure(1)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := fig.SeriesByName("TLSv12")
	if !ok {
		t.Fatal("no TLSv12 series")
	}
	if len(res.Series.Points) != len(want.Points) {
		t.Fatalf("query series has %d points, figure %d", len(res.Series.Points), len(want.Points))
	}
	for i, p := range want.Points {
		if res.Series.Points[i] != p {
			t.Fatalf("query diverges from the catalog at %v", p.Month)
		}
	}

	e, err := analysis.ParseQuery("over(null-negotiated / established)")
	if err != nil {
		t.Fatal(err)
	}
	byExpr, err := s.QueryExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	byText, err := s.Query("over(null-negotiated / established)")
	if err != nil || byExpr.Value != byText.Value || byExpr.Kind != "scalar" {
		t.Errorf("QueryExpr %v/%v vs Query %v (err %v)", byExpr.Value, byExpr.Kind, byText.Value, err)
	}

	if _, err := s.Query("pct(bogus / total)"); err == nil {
		t.Error("bad column should error")
	}
	var unrun Study
	if _, err := unrun.Query("count(total)"); err == nil {
		t.Error("query before Run should error")
	}
}

// TestScanSweepParallelDeterministic pins the satellite guarantee: the
// bounded snapshot pool must produce byte-identical sweeps for every pool
// width, in chronological order.
func TestScanSweepParallelDeterministic(t *testing.T) {
	run := func(snapshotWorkers int) []SweepPoint {
		sweep := &ScanSweep{
			Start:            timeline.M(2016, time.February),
			End:              timeline.M(2017, time.February),
			StepMonths:       6,
			HostsPerSnapshot: 60,
			Workers:          16,
			Seed:             21,
			SnapshotWorkers:  snapshotWorkers,
		}
		points, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	serial := run(1)
	parallel := run(3)
	if len(serial) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(serial))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("snapshot %d differs between pool widths:\nserial:   %+v\nparallel: %+v",
				i, serial[i], parallel[i])
		}
	}
	for i := 1; i < len(parallel); i++ {
		if !parallel[i-1].Month.Before(parallel[i].Month) {
			t.Fatal("sweep points out of chronological order")
		}
	}
}

// closeTracker is a sink that records deliveries and closes, optionally
// failing at the Nth record — the failing-simulation probe for RunSinks'
// lifecycle guarantees.
type closeTracker struct {
	seen      int
	closed    int
	failAfter int // fail Observe once seen reaches this (0 = never)
	closeErr  error
}

func (c *closeTracker) Observe(r *notary.Record) error {
	c.seen++
	if c.failAfter > 0 && c.seen >= c.failAfter {
		return errors.New("injected sink failure")
	}
	return nil
}

func (c *closeTracker) Close() error { c.closed++; return c.closeErr }

// TestRunSinksClosesEverythingOnFailure pins the lifecycle fix: when the
// simulation fails mid-run, the TSV log writer and every extra sink must
// still be closed (flushed and detached), and the simulation error wins.
func TestRunSinksClosesEverythingOnFailure(t *testing.T) {
	var buf bytes.Buffer
	s := NewStudy(10)
	s.Options.End = timeline.M(2012, time.April)
	failer := &closeTracker{failAfter: 5}
	bystander := &closeTracker{}
	err := s.RunSinks(&buf, failer, bystander)
	if err == nil || !strings.Contains(err.Error(), "injected sink failure") {
		t.Fatalf("RunSinks error = %v, want the injected failure", err)
	}
	if failer.closed != 1 || bystander.closed != 1 {
		t.Errorf("sinks closed (%d, %d) times on failure, want (1, 1)",
			failer.closed, bystander.closed)
	}
	if buf.Len() == 0 {
		t.Error("log writer was not flushed on the failure path")
	}
	if s.Aggregate() != nil {
		t.Error("failed run must not install a partial aggregate")
	}

	// On a successful run a sink's close error is reported (first one wins),
	// and every sink still closes exactly once.
	s2 := NewStudy(5)
	s2.Options.End = timeline.M(2012, time.March)
	badClose := &closeTracker{closeErr: errors.New("close failed")}
	tail := &closeTracker{}
	err = s2.RunSinks(nil, badClose, tail)
	if err == nil || !strings.Contains(err.Error(), "close failed") {
		t.Fatalf("RunSinks close error = %v, want propagation", err)
	}
	if badClose.closed != 1 || tail.closed != 1 {
		t.Errorf("sinks closed (%d, %d) times, want (1, 1)", badClose.closed, tail.closed)
	}
	if badClose.seen == 0 || badClose.seen != tail.seen {
		t.Errorf("sinks saw (%d, %d) records", badClose.seen, tail.seen)
	}
}

// TestScanCampaignReceiverUnchanged pins the reuse fix: Run must resolve
// defaults into locals, leaving a zero-valued campaign byte-identical so one
// value can be reused across dates.
func TestScanCampaignReceiverUnchanged(t *testing.T) {
	c := &ScanCampaign{Date: timeline.D(2018, time.May, 13), Hosts: 60, Seed: 9}
	before := *c
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if *c != before {
		t.Errorf("Run mutated its receiver:\nbefore: %+v\nafter:  %+v", before, *c)
	}
	if c.Workers != 0 || c.Timeout != 0 {
		t.Error("defaults written back into the campaign struct")
	}
}

// TestScanScalarsOrderAndLabels pins the row order (experiment-ID order,
// S2d before S2e) and the corrected S4a label: it measures the Sep 2015
// campaign and must say so.
func TestScanScalarsOrderAndLabels(t *testing.T) {
	sep := &CampaignReport{Date: timeline.D(2015, time.September, 15), Probes: map[string]scanner.Summary{}}
	may := &CampaignReport{Date: timeline.D(2018, time.May, 13), Probes: map[string]scanner.Summary{}}
	scalars := ScanScalars(sep, may)
	wantIDs := []string{"S1a", "S1b", "S2a", "S2b", "S2c", "S2d", "S2e", "S3a", "S3b", "S4a", "S4b"}
	if len(scalars) != len(wantIDs) {
		t.Fatalf("%d scalars, want %d", len(scalars), len(wantIDs))
	}
	for i, want := range wantIDs {
		if scalars[i].ID != want {
			t.Errorf("row %d: ID %s, want %s", i, scalars[i].ID, want)
		}
	}
	for _, s := range scalars {
		if strings.Contains(s.Name, "Aug 2015") {
			t.Errorf("%s still labeled Aug 2015: %q", s.ID, s.Name)
		}
	}
	s4a := scalars[9]
	if s4a.ID != "S4a" || !strings.Contains(s4a.Name, "Sep 2015") {
		t.Errorf("S4a label = %q, want a Sep 2015 label", s4a.Name)
	}
}

// TestStudyConcurrentIngestAndFrame hammers the live-ingest write path
// (IngestSink and MergeShard) while readers pull Frame snapshots and Counts
// — run under -race. Every observed generation must be monotonic and every
// frame self-consistent: the aggregate's generation counts records, so a
// frame's Total column must sum to exactly its generation.
func TestStudyConcurrentIngestAndFrame(t *testing.T) {
	const producers = 4
	const perProducer = 400
	const shardEvery = 64

	s := NewLiveStudy()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sink := s.IngestSink()
			shard := notary.NewAggregate()
			for i := 0; i < perProducer; i++ {
				rec := &notary.Record{
					Date:         timeline.D(2012+i%3, time.Month(1+i%12), 1+i%27),
					Established:  i%2 == 0,
					ClientSuites: []uint16{0x002f},
				}
				// Odd producers batch through MergeShard, even producers
				// deliver record-at-a-time through the safe sink.
				if p%2 == 1 {
					shard.Add(rec)
					if shard.TotalRecords() >= shardEvery {
						if err := s.MergeShard(shard); err != nil {
							t.Errorf("merge: %v", err)
							return
						}
						shard = notary.NewAggregate()
					}
				} else if err := sink.Observe(rec); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
			if shard.TotalRecords() > 0 {
				if err := s.MergeShard(shard); err != nil {
					t.Errorf("final merge: %v", err)
				}
			}
		}(p)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastGen uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				f, err := s.Frame()
				if err != nil {
					t.Errorf("frame: %v", err)
					return
				}
				total := 0
				for i := range f.Months {
					total += f.Total[i]
				}
				if uint64(total) != f.Generation() {
					t.Errorf("torn frame: %d records at generation %d", total, f.Generation())
					return
				}
				if len(f.Established) != f.Len() || len(f.Counts[0]) != f.Len() {
					t.Errorf("frame columns misaligned with month axis")
					return
				}
				_, _, gen, err := s.Counts()
				if err != nil {
					t.Errorf("counts: %v", err)
					return
				}
				if gen < lastGen {
					t.Errorf("generation moved backwards: %d after %d", gen, lastGen)
					return
				}
				lastGen = gen
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	records, _, gen, err := s.Counts()
	if err != nil {
		t.Fatal(err)
	}
	want := producers * perProducer
	if records != want || gen != uint64(want) {
		t.Fatalf("final state: %d records at generation %d, want %d", records, gen, want)
	}
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Generation() != uint64(want) {
		t.Errorf("final frame generation %d, want %d", f.Generation(), want)
	}
}

// TestStudyQueryCacheIntegration pins the generation-keyed result cache:
// repeats hit, canonicalization shares entries across text and Expr forms,
// ingestion invalidates by generation, and an aggregate replacement that
// lands on a colliding generation is kept apart by the epoch.
func TestStudyQueryCacheIntegration(t *testing.T) {
	s := NewStudy(30)
	s.Options.End = timeline.M(2012, time.December)
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	cache := analysis.NewQueryCache(64, 1<<20)
	s.SetQueryCache(cache, "test")

	const src = "pct(version:tls12 / established)"
	res1, gen1, hit1, err := s.QueryInfo(src)
	if err != nil || hit1 {
		t.Fatalf("first query: err=%v hit=%v, want a miss", err, hit1)
	}
	res2, gen2, hit2, err := s.QueryInfo(src)
	if err != nil || !hit2 || gen2 != gen1 {
		t.Fatalf("repeat query: err=%v hit=%v gen=%d/%d, want a hit at the same generation",
			err, hit2, gen2, gen1)
	}
	if res1.Query != res2.Query || len(res1.Series.Points) != len(res2.Series.Points) {
		t.Fatal("cached result differs from the computed one")
	}
	for i := range res1.Series.Points {
		if res1.Series.Points[i] != res2.Series.Points[i] {
			t.Fatal("cached points differ from the computed ones")
		}
	}

	// The Expr form canonicalizes to the same key and shares the entry.
	e, err := analysis.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, hit, err := s.QueryExprInfo(e); err != nil || !hit {
		t.Errorf("Expr form of a cached query: err=%v hit=%v, want a hit", err, hit)
	}

	// A generation advance through live ingestion makes the entry
	// unreachable; the recomputed result matches the interpreter exactly.
	donor := notary.NewAggregate()
	donor.Add(&notary.Record{Date: timeline.D(2012, time.March, 3)})
	if err := s.MergeShard(donor); err != nil {
		t.Fatal(err)
	}
	res3, gen3, hit3, err := s.QueryInfo(src)
	if err != nil || hit3 || gen3 != gen1+1 {
		t.Fatalf("post-ingest query: err=%v hit=%v gen=%d, want a miss at generation %d",
			err, hit3, gen3, gen1+1)
	}
	f, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Query(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Series.Points {
		if res3.Series.Points[i] != want.Series.Points[i] {
			t.Fatal("post-ingest result diverges from the interpreter")
		}
	}

	// Replacing the aggregate (Run with a different seed, same record
	// count) lands on a colliding generation — the epoch must keep the old
	// entries unreachable so no stale body is ever served.
	s.Options.Seed = 2
	if err := s.Run(nil); err != nil {
		t.Fatal(err)
	}
	res4, gen4, hit4, err := s.QueryInfo(src)
	if err != nil {
		t.Fatal(err)
	}
	if gen4 != gen1 {
		t.Fatalf("epoch test needs a generation collision: got %d, want %d", gen4, gen1)
	}
	if hit4 {
		t.Fatal("stale cache hit across an aggregate replacement")
	}
	f4, err := s.Frame()
	if err != nil {
		t.Fatal(err)
	}
	want4, err := f4.Query(e)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want4.Series.Points {
		if res4.Series.Points[i] != want4.Series.Points[i] {
			t.Fatal("post-replacement result diverges from the interpreter")
		}
	}
	if _, _, hit5, err := s.QueryInfo(src); err != nil || !hit5 {
		t.Errorf("repeat after replacement: err=%v hit=%v, want a hit", err, hit5)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("cache stats unchanged: %+v", st)
	}

	// An unrun study reports the sentinel through the cached path too.
	var unrun Study
	unrun.SetQueryCache(cache, "unrun")
	if _, _, _, err := unrun.QueryInfo(src); !errors.Is(err, ErrNotRun) {
		t.Errorf("unrun study: err=%v, want ErrNotRun", err)
	}
}
