// Package core is the public entry point of the library: it wires the
// substrates (populations, simulator, notary, fingerprint database, scanner,
// serverfarm, analysis) into the two workflows of the paper —
//
//   - Study: the passive Notary measurement (Feb 2012 – Apr 2018), yielding
//     Figures 1–10, Tables 1–6 and the §4/§5/§6 scalar findings;
//   - ScanCampaign: the active Censys-style measurement over a real-TCP
//     server farm, yielding the §5.1–§5.6 server-side scalars.
//
// Both are deterministic for a given seed.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlsage/internal/analysis"
	"tlsage/internal/clientdb"
	"tlsage/internal/fingerprint"
	"tlsage/internal/handshake"
	"tlsage/internal/notary"
	"tlsage/internal/population"
	"tlsage/internal/registry"
	"tlsage/internal/scanner"
	"tlsage/internal/serverfarm"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
	"tlsage/internal/wire"
)

// ErrNotRun reports a study that has no aggregate yet: neither Run nor a
// live constructor (NewLiveStudy, NewStudyFromAggregate) has given it data.
// The service layer matches it with errors.Is to map "not ready" to 503
// instead of 400.
var ErrNotRun = errors.New("core: study has not been run")

// Study orchestrates the passive measurement.
type Study struct {
	Options simulate.Options

	// mu guards agg and db against live ingestion: IngestSink and
	// MergeShard take it exclusively per delivery, readers (Frame, Counts)
	// share it. Batch callers that mutate the aggregate directly through
	// Aggregate() stay single-goroutine and never contend.
	mu  sync.RWMutex
	agg *notary.Aggregate
	db  *fingerprint.DB
	// frameMu guards the frame cache below; it is separate from mu so
	// concurrent readers can settle who rebuilds without writing under a
	// shared read lock.
	frameMu sync.Mutex
	// frame caches the columnar snapshot of agg that all figure/scalar
	// queries evaluate against. It is rebuilt lazily whenever the
	// aggregate's generation moves (Run, LoadLog, live ingestion, or any
	// Add/Merge through the Aggregate() accessor).
	frame *analysis.Frame

	// queryCache, when set, fronts Query/QueryExpr with a shared
	// generation-keyed result cache; cacheID namespaces this study's keys
	// within it. cacheEpoch versions aggregate replacements (Run, LoadLog):
	// generations count records, so a rebuilt study can land on a colliding
	// generation, and the epoch — bumped under mu in the same critical
	// section as the swap — keeps its cache keys disjoint from the old
	// aggregate's. Guarded by mu like the aggregate it versions.
	queryCache *analysis.QueryCache
	cacheID    string
	cacheEpoch uint64

	// compiles counts the queries compiled against a frame (result-cache
	// hits excluded); PlanCompiles reports it.
	compiles atomic.Uint64
}

// SetQueryCache attaches a (possibly shared) query result cache, with id
// namespacing this study's entries. A nil cache — the default — disables
// result caching; queries then compile and evaluate on every call.
func (s *Study) SetQueryCache(c *analysis.QueryCache, id string) {
	s.mu.Lock()
	s.queryCache, s.cacheID = c, id
	s.mu.Unlock()
}

// NewStudy creates a study at the given per-month sample size with the
// default seed and full window.
func NewStudy(connsPerMonth int) *Study {
	return &Study{Options: simulate.DefaultOptions(connsPerMonth)}
}

// NewLiveStudy creates an empty study ready for live ingestion: the
// aggregate exists (so Frame and every query answer immediately, over zero
// months) and records arrive through IngestSink or MergeShard instead of
// Run. This is the service-mode constructor — the same aggregate that
// answers queries keeps ingesting. The fingerprint database doubles as the
// aggregate's classifier, so client-class attribution (the agent: query
// family, Table 2) accumulates as records stream in.
func NewLiveStudy() *Study {
	db := fingerprint.BuildDefault()
	agg := notary.NewAggregate()
	agg.SetClassifier(db)
	return &Study{agg: agg, db: db}
}

// NewStudyFromAggregate wraps an already-built aggregate — typically one
// decoded from a durable snapshot — as a live study: queries answer off the
// recovered months immediately and further records arrive through
// IngestSink or MergeShard. This is the restart-recovery constructor. The
// default fingerprint database is (re)installed as the classifier —
// configuration is not serialized with snapshots — so attribution resumes
// for newly ingested records.
func NewStudyFromAggregate(agg *notary.Aggregate) *Study {
	db := fingerprint.BuildDefault()
	agg.SetClassifier(db)
	return &Study{agg: agg, db: db}
}

// NewShard returns a fresh private aggregate configured like the study's own
// (same classifier), for batched ingestion: parse into the shard without
// contention, then fold it in with MergeShard. Shards created any other way
// would silently skip client-class attribution — Merge transfers counters,
// and only counters.
func (s *Study) NewShard() *notary.Aggregate {
	shard := notary.NewAggregate()
	s.mu.RLock()
	if s.agg != nil {
		shard.SetClassifier(s.agg.Classifier())
	}
	s.mu.RUnlock()
	return shard
}

// WriteSnapshot serializes the study's aggregate to w in the versioned
// notary snapshot format, under the shared read lock so a concurrent merge
// never tears the encoding. It returns the generation the snapshot
// captured; because generations count ingested records, the value doubles
// as the record count a recovery must skip when replaying the TSV log tail.
func (s *Study) WriteSnapshot(w io.Writer) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return 0, fmt.Errorf("core: study has no aggregate (use NewLiveStudy or Run first)")
	}
	if err := notary.WriteSnapshot(w, s.agg); err != nil {
		return 0, err
	}
	return s.agg.Generation(), nil
}

// Run executes the simulation and aggregation. When logWriter is non-nil
// every connection record is additionally streamed to it as a Bro-style TSV
// log. Extra sinks (network forwarders, extra indices, ...) can be teed in
// with RunSinks.
func (s *Study) Run(logWriter io.Writer) error {
	return s.RunSinks(logWriter)
}

// RunSinks is Run with additional record consumers: every simulated record
// is delivered to the study's aggregate, the optional TSV log, and each
// extra sink (in that order) — the attachment point for long-running
// consumers. Every sink is closed on every exit path, including a failed
// simulation, so attached consumers are always flushed and detached; a
// simulation error takes precedence over close errors, and among close
// errors the first wins.
func (s *Study) RunSinks(logWriter io.Writer, extra ...notary.Sink) error {
	sim := simulate.New(s.Options)
	db := fingerprint.BuildDefault()
	agg := notary.NewAggregate()
	agg.SetClassifier(db)
	sinks := make([]notary.Sink, 0, 2+len(extra))
	sinks = append(sinks, agg)
	if logWriter != nil {
		sinks = append(sinks, notary.NewLogWriter(logWriter))
	}
	sinks = append(sinks, extra...)
	tee := notary.Tee(sinks...)
	runErr := sim.Run(tee)
	closeErr := tee.Close() // best effort: closes every sink, first error wins
	if runErr != nil {
		return runErr
	}
	if closeErr != nil {
		return closeErr
	}
	s.mu.Lock()
	s.agg = agg
	s.db = db
	s.cacheEpoch++
	s.mu.Unlock()
	s.invalidateFrame()
	return nil
}

// LoadLog rebuilds a study from a previously written TSV log instead of
// re-simulating — the post-hoc analysis path. The TSV stream is sharded on
// line boundaries across Options.Workers parse workers (0 = all cores) and
// the per-shard aggregates are merged, so loading scales like Run does.
// Parsing runs classified, so the reloaded study carries the same agent:
// attribution a live run would.
func (s *Study) LoadLog(r io.Reader) error {
	db := fingerprint.BuildDefault()
	agg, err := notary.ReadLogParallelClassified(r, s.Options.Workers, db)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.agg = agg
	s.db = db
	s.cacheEpoch++
	s.mu.Unlock()
	s.invalidateFrame()
	return nil
}

// invalidateFrame drops the cached snapshot so the next Frame call rebuilds.
func (s *Study) invalidateFrame() {
	s.frameMu.Lock()
	s.frame = nil
	s.frameMu.Unlock()
}

// IngestSink returns a concurrency-safe sink feeding the study's live
// aggregate: every Observe takes the study's write lock, so any number of
// producers may deliver concurrently while readers pull Frame snapshots.
// Close is a no-op — the study outlives its producers. The usual Sink
// contract applies: records are only valid for the duration of Observe.
func (s *Study) IngestSink() notary.Sink {
	return ingestSink{s}
}

// ingestSink is the Sink view of a live study.
type ingestSink struct{ s *Study }

func (is ingestSink) Observe(r *notary.Record) error {
	is.s.mu.Lock()
	defer is.s.mu.Unlock()
	if is.s.agg == nil {
		return fmt.Errorf("core: study has no aggregate (use NewLiveStudy or Run first)")
	}
	is.s.agg.Add(r)
	return nil
}

func (is ingestSink) Close() error { return nil }

// MergeShard folds a privately accumulated aggregate into the live study in
// one locked operation — the batched ingestion path: a network stream parses
// into its own shard (no contention) and merges every few thousand records,
// reusing Aggregate.Merge. The shard is not modified and may be reused.
func (s *Study) MergeShard(shard *notary.Aggregate) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.agg == nil {
		return fmt.Errorf("core: study has no aggregate (use NewLiveStudy or Run first)")
	}
	s.agg.Merge(shard)
	return nil
}

// Counts reports the live aggregate's record count, observed month count and
// generation in one consistent read — the health-endpoint view. The
// generation is monotonic under IngestSink/MergeShard ingestion.
func (s *Study) Counts() (records, months int, generation uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return 0, 0, 0, ErrNotRun
	}
	return s.agg.TotalRecords(), s.agg.NumMonths(), s.agg.Generation(), nil
}

// Aggregate exposes the raw monthly statistics; nil before Run. Direct
// mutation through this accessor is a batch-mode convenience — concurrent
// producers must deliver through IngestSink or MergeShard instead.
func (s *Study) Aggregate() *notary.Aggregate { return s.agg }

// FingerprintDB exposes the §4 fingerprint database; nil before Run.
func (s *Study) FingerprintDB() *fingerprint.DB { return s.db }

// Frame returns the columnar snapshot of the study's aggregate, building it
// on first use and rebuilding it whenever the aggregate has mutated since
// the cached snapshot (generation check). Callers may hold the returned
// frame across further ingestion: it is immutable, and a later Frame call
// yields a fresh snapshot.
//
// Frame is safe for concurrent readers, including while producers deliver
// through IngestSink or MergeShard: the aggregate is read under the shared
// lock (excluding writers for the duration of a rebuild) and the cache slot
// has its own mutex, so every reader gets a self-consistent snapshot and
// ingestion never observes a torn frame.
func (s *Study) Frame() (*analysis.Frame, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frameLocked()
}

// frameLocked is Frame's body; callers hold s.mu (read or write).
func (s *Study) frameLocked() (*analysis.Frame, error) {
	if s.agg == nil {
		return nil, ErrNotRun
	}
	s.frameMu.Lock()
	defer s.frameMu.Unlock()
	if s.frame == nil || s.frame.Generation() != s.agg.Generation() {
		s.frame = analysis.NewFrame(s.agg)
	}
	return s.frame, nil
}

// Figures builds all ten passive figures from the cached frame.
func (s *Study) Figures() ([]analysis.Figure, error) {
	f, err := s.Frame()
	if err != nil {
		return nil, err
	}
	return f.Figures(), nil
}

// Figure builds figure n (1–10).
func (s *Study) Figure(n int) (analysis.Figure, error) {
	f, err := s.Frame()
	if err != nil {
		return analysis.Figure{}, err
	}
	fig, ok := f.FigureByNum(n)
	if !ok {
		return analysis.Figure{}, fmt.Errorf("core: no figure %d", n)
	}
	return fig, nil
}

// FigureByName builds the catalog figure with the given name (see
// analysis.Catalog; e.g. "fingerprint-classes" or "extensions"). Names
// match case-insensitively; a miss lists the valid catalog names.
func (s *Study) FigureByName(name string) (analysis.Figure, error) {
	f, err := s.Frame()
	if err != nil {
		return analysis.Figure{}, err
	}
	fig, ok := f.FigureByName(name)
	if !ok {
		return analysis.Figure{}, fmt.Errorf("core: no figure named %q (valid names: %s)",
			name, strings.Join(analysis.CatalogNames(), ", "))
	}
	return fig, nil
}

// Query parses src with analysis.ParseQuery and evaluates it against the
// study's cached frame — the ad-hoc metric path beyond the figure catalog.
func (s *Study) Query(src string) (analysis.QueryResult, error) {
	res, _, _, err := s.QueryInfo(src)
	return res, err
}

// QueryInfo is Query plus the aggregate generation the result belongs to
// and whether it was served from the attached result cache — the service
// layer stamps both onto response headers.
func (s *Study) QueryInfo(src string) (analysis.QueryResult, uint64, bool, error) {
	res, _, gen, hit, err := s.QueryInfoJSON(src)
	return res, gen, hit, err
}

// QueryInfoJSON is QueryInfo plus the serialized JSON response body when the
// attached result cache holds one (nil otherwise) — the service writes it to
// the wire directly, so a hit skips json.Marshal as well as evaluation.
func (s *Study) QueryInfoJSON(src string) (analysis.QueryResult, []byte, uint64, bool, error) {
	e, err := analysis.ParseQuery(src)
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	return s.queryValidated(e)
}

// QueryExpr evaluates an already-built expression (e.g. decoded from JSON)
// against the study's cached frame.
func (s *Study) QueryExpr(e *analysis.Expr) (analysis.QueryResult, error) {
	res, _, _, err := s.QueryExprInfo(e)
	return res, err
}

// QueryExprInfo is QueryExpr with the generation/cache-hit metadata of
// QueryInfo. The expression is validated before anything else: the cache is
// keyed by canonical text, and only a validated expression's String() is
// guaranteed to be canonical (a malformed column name could otherwise
// impersonate another query's key).
func (s *Study) QueryExprInfo(e *analysis.Expr) (analysis.QueryResult, uint64, bool, error) {
	res, _, gen, hit, err := s.QueryExprInfoJSON(e)
	return res, gen, hit, err
}

// QueryExprInfoJSON is QueryExprInfo plus the cached serialized JSON body
// (see QueryInfoJSON).
func (s *Study) QueryExprInfoJSON(e *analysis.Expr) (analysis.QueryResult, []byte, uint64, bool, error) {
	if err := e.Validate(); err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	return s.queryValidated(e)
}

// cacheCoords snapshots the cache handle and the study's current
// (epoch, generation) coordinates in one shared lock acquisition — the hit
// path's only shared-state read; it never builds or touches a Frame.
func (s *Study) cacheCoords() (cache *analysis.QueryCache, id string, epoch, generation uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return nil, "", 0, 0, ErrNotRun
	}
	return s.queryCache, s.cacheID, s.cacheEpoch, s.agg.Generation(), nil
}

// frameWithEpoch returns the current frame together with the cache epoch it
// belongs to, read under one shared lock acquisition so an aggregate swap
// can never pair a frame with the wrong epoch.
func (s *Study) frameWithEpoch() (*analysis.Frame, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.frameLocked()
	if err != nil {
		return nil, 0, err
	}
	return f, s.cacheEpoch, nil
}

// queryValidated serves a validated expression: from the result cache when
// an entry exists for the study's current (epoch, generation) — without
// touching the frame — and otherwise by compiling a plan against the
// current frame, evaluating it, and caching the result (with its serialized
// body) under coordinates read atomically with that frame. A nil cache
// degrades to plain compile-and-evaluate.
//
// Every miss compiles afresh: a compile costs about a microsecond, far below
// the rest of a miss, and concurrent misses already share one frame build
// through frameMu.
func (s *Study) queryValidated(e *analysis.Expr) (analysis.QueryResult, []byte, uint64, bool, error) {
	cache, id, epoch, gen, err := s.cacheCoords()
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	var key string
	if cache != nil {
		key = e.String()
		if res, body, hit := cache.Get(id, epoch, gen, key); hit {
			return res, body, gen, true, nil
		}
	}
	f, epoch, err := s.frameWithEpoch()
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	p, err := analysis.Compile(e, f)
	if err != nil {
		return analysis.QueryResult{}, nil, 0, false, err
	}
	s.compiles.Add(1)
	res := p.Eval()
	var body []byte
	if cache != nil {
		// A marshal failure only costs this entry the serialized-body fast
		// path; the result itself still caches and serves.
		body, _ = res.EncodeJSONBody()
		cache.Put(id, epoch, f.Generation(), key, res, body)
	}
	return res, body, f.Generation(), false, nil
}

// PlanCompiles reports how many queries compiled a plan (result-cache misses
// and cache-less queries) — the observability hook tests and benchmarks pin.
func (s *Study) PlanCompiles() uint64 { return s.compiles.Load() }

// Scalars returns the passive and fingerprint scalar findings. Both halves
// are computed under one shared lock acquisition, so a live report never
// mixes two generations.
func (s *Study) Scalars() ([]analysis.Scalar, error) {
	out, _, err := s.ScalarsWithGeneration()
	return out, err
}

// ScalarsWithGeneration is Scalars plus the aggregate generation the report
// was computed against, read atomically with the report itself — the
// service uses it to stamp staleness headers that match the body exactly.
func (s *Study) ScalarsWithGeneration() ([]analysis.Scalar, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.frameLocked()
	if err != nil {
		return nil, 0, err
	}
	out := analysis.PassiveScalarsFrame(f)
	return append(out, analysis.FingerprintScalars(s.agg)...), f.Generation(), nil
}

// Impacts returns the §7.4 attack-impact rows.
func (s *Study) Impacts() ([]analysis.AttackImpact, error) {
	f, err := s.Frame()
	if err != nil {
		return nil, err
	}
	return analysis.AttackImpactsFrame(f), nil
}

// Table2 reproduces the fingerprint summary table through the query surface:
// every coverage number is an agent:-family expression evaluated against the
// study's cached frame (analysis.BuildTable2Frame), byte-identical to the
// legacy aggregate walk because the study's classifier is its own fingerprint
// database. An aggregate recovered from a pre-attribution (v1) snapshot has
// empty attribution counters; its Table 2 reports zero coverage until records
// are re-ingested or new ones arrive.
func (s *Study) Table2() (analysis.Table2Report, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.frameLocked()
	if err != nil {
		return analysis.Table2Report{}, err
	}
	return analysis.BuildTable2Frame(f, s.db), nil
}

// ExtensionFigure builds the §9 extension-uptake figure (Figure E1).
func (s *Study) ExtensionFigure() (analysis.Figure, error) {
	return s.FigureByName("extensions")
}

// TLS13Variants returns the advertised TLS 1.3 variant split (§6.4).
func (s *Study) TLS13Variants() ([]analysis.TLS13VariantShare, error) {
	f, err := s.Frame()
	if err != nil {
		return nil, err
	}
	return analysis.TLS13VariantSharesFrame(f), nil
}

// FingerprintDurations returns the §4.1 lifetime statistics.
func (s *Study) FingerprintDurations() (fingerprint.DurationStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.agg == nil {
		return fingerprint.DurationStats{}, ErrNotRun
	}
	return fingerprint.ComputeDurationStats(s.agg.FPDurations()), nil
}

// Static table reproductions (no simulation needed).

// Table1 returns the version release dates.
func Table1() []struct {
	Version registry.Version
	Name    string
	Date    registry.ReleaseDate
} {
	return registry.VersionReleases()
}

// Table3 returns the browser CBC-count change rows.
func Table3() []clientdb.TableRow { return clientdb.Table3CBC() }

// Table4 returns the browser RC4 change rows.
func Table4() []clientdb.TableRow { return clientdb.Table4RC4() }

// Table5 returns the browser 3DES change rows.
func Table5() []clientdb.TableRow { return clientdb.Table53DES() }

// Table6 returns the browser version-support rows.
func Table6() []clientdb.VersionSupportRow { return clientdb.Table6Versions() }

// ScanCampaign orchestrates an active Censys-style sweep: it samples a farm
// of server configurations from the host-census universe at a given date,
// binds them to loopback TCP listeners and runs every probe against them.
type ScanCampaign struct {
	// Date selects the population snapshot (e.g. Sep 2015 vs May 2018).
	Date timeline.Date
	// Hosts is the farm size.
	Hosts int
	// Workers is the scanner pool width.
	Workers int
	// Seed drives the population sampling.
	Seed int64
	// Timeout bounds each probe connection.
	Timeout time.Duration
	// PopularityWeighted samples the farm from the traffic universe instead
	// of the host census — the Alexa-Top-1M flavour of the Censys scans
	// (§3.2): popular sites are more modern than the average IPv4 host.
	PopularityWeighted bool
}

// CampaignReport aggregates one campaign.
type CampaignReport struct {
	Date   timeline.Date
	Hosts  int
	Probes map[string]scanner.Summary
	// VulnerableHosts counts hosts the Heartbleed exploit check actually
	// over-read: the scanner negotiates heartbeat and sends a request whose
	// claimed length exceeds its payload, exactly as the §5.4 scans did.
	VulnerableHosts int
	// GroundTruthVulnerable counts farm hosts configured as unpatched; the
	// exploit check must agree with it (cross-validated in tests).
	GroundTruthVulnerable int
	// LeakedBytes totals the memory over-read across vulnerable hosts.
	LeakedBytes int
}

// Frac is a convenience percentage over farm hosts.
func (r *CampaignReport) Frac(n int) float64 {
	if r.Hosts == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Hosts)
}

// SSL3SupportPct returns the §5.1 metric: hosts answering the SSL3-only probe.
func (r *CampaignReport) SSL3SupportPct() float64 {
	return r.Frac(r.Probes["ssl3only"].Answered)
}

// RC4ChosenPct returns the §5.3 metric: hosts choosing RC4 against the
// Chrome-2015 list.
func (r *CampaignReport) RC4ChosenPct() float64 {
	return r.Frac(r.Probes["chrome2015"].ChoseRC4)
}

// CBCChosenPct returns the §5.2 metric.
func (r *CampaignReport) CBCChosenPct() float64 {
	return r.Frac(r.Probes["chrome2015"].CBCTotal())
}

// TDESChosenPct returns the §5.6 metric.
func (r *CampaignReport) TDESChosenPct() float64 {
	return r.Frac(r.Probes["chrome2015"].Chose3DES)
}

// HeartbeatSupportPct returns the §5.4 extension-support metric.
func (r *CampaignReport) HeartbeatSupportPct() float64 {
	return r.Frac(r.Probes["chrome2015"].HeartbeatAck)
}

// ExportSupportPct returns the §5.5 metric: hosts answering the export-only
// probe with an export suite.
func (r *CampaignReport) ExportSupportPct() float64 {
	return r.Frac(r.Probes["exportonly"].ChoseExport)
}

// HeartbleedVulnerablePct returns the §5.4 vulnerability metric, from the
// live exploit check.
func (r *CampaignReport) HeartbleedVulnerablePct() float64 {
	return r.Frac(r.VulnerableHosts)
}

// RC4SupportPct returns the SSL-Pulse-style §5.3 metric: hosts answering an
// RC4-only offer.
func (r *CampaignReport) RC4SupportPct() float64 {
	return r.Frac(r.Probes["rc4only"].Answered)
}

// Run executes the campaign. Defaults for Hosts, Workers and Timeout are
// resolved into locals — the receiver is never written, so one campaign
// value can be reused across dates without its configuration silently
// pinning to the first run's defaults.
func (c *ScanCampaign) Run(ctx context.Context) (*CampaignReport, error) {
	hosts := c.Hosts
	if hosts <= 0 {
		hosts = 200
	}
	workers := c.Workers
	if workers <= 0 {
		workers = 16
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 3 * time.Second
	}
	rnd := rand.New(rand.NewSource(c.Seed))
	servers := population.DefaultServers()
	universe := population.ByHosts
	if c.PopularityWeighted {
		universe = population.ByTraffic
	}

	configs := make([]*handshake.ServerConfig, hosts)
	cohorts := make([]string, hosts)
	groundTruth := 0
	for i := 0; i < hosts; i++ {
		cohort, cfg := servers.Sample(c.Date, universe, rnd)
		configs[i] = cfg
		cohorts[i] = cohort.Name
		if cfg.HeartbleedVulnerable {
			groundTruth++
		}
	}
	farm, err := serverfarm.StartFarm(configs, cohorts, timeout)
	if err != nil {
		return nil, err
	}
	defer farm.Close()

	report := &CampaignReport{
		Date:                  c.Date,
		Hosts:                 hosts,
		Probes:                make(map[string]scanner.Summary),
		GroundTruthVulnerable: groundTruth,
	}
	sc := scanner.New(workers)
	sc.Timeout = timeout
	// Probes are independent against the farm, so they run concurrently on a
	// bounded pool. Hellos are pre-built serially from the shared RNG so the
	// draw sequence — and with it the report — stays deterministic; the
	// summaries land in per-probe slots, so completion order cannot reorder
	// the report either.
	probes := scanner.AllProbes()
	hellos := make([]*wire.ClientHello, len(probes))
	for i, probe := range probes {
		hellos[i] = probe.Build(rnd)
	}
	probeWorkers := runtime.GOMAXPROCS(0)
	if probeWorkers > len(probes) {
		probeWorkers = len(probes)
	}
	summaries := make([]scanner.Summary, len(probes))
	probeErrs := make([]error, len(probes))
	sem := make(chan struct{}, probeWorkers)
	var wg sync.WaitGroup
	for i := range probes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results, err := sc.Scan(ctx, farm.Addrs(), hellos[i])
			if err != nil {
				probeErrs[i] = fmt.Errorf("core: probe %s: %w", probes[i].Name, err)
				return
			}
			summaries[i] = scanner.Summarize(results)
		}(i)
	}
	wg.Wait()
	for i, err := range probeErrs {
		if err != nil {
			return nil, err
		}
		report.Probes[probes[i].Name] = summaries[i]
	}

	// The live Heartbleed exploit check (§5.4).
	hb, err := sc.ScanHeartbleed(ctx, farm.Addrs())
	if err != nil {
		return nil, fmt.Errorf("core: heartbleed check: %w", err)
	}
	for _, r := range hb {
		if r.Vulnerable {
			report.VulnerableHosts++
			report.LeakedBytes += r.LeakedBytes
		}
	}
	return report, nil
}

// ScanScalars compares two campaign snapshots against the paper's Censys
// numbers (experiments S1–S4). Rows are emitted in experiment-ID order.
func ScanScalars(sep2015, may2018 *CampaignReport) []analysis.Scalar {
	return []analysis.Scalar{
		{ID: "S1a", Name: "SSL3 server support, Sep 2015", Paper: 45, Measured: sep2015.SSL3SupportPct(), Unit: "%"},
		{ID: "S1b", Name: "SSL3 server support, May 2018", Paper: 25, Measured: may2018.SSL3SupportPct(), Unit: "%"},
		{ID: "S2a", Name: "servers choosing RC4, Sep 2015", Paper: 11.2, Measured: sep2015.RC4ChosenPct(), Unit: "%"},
		{ID: "S2b", Name: "servers choosing RC4, May 2018", Paper: 3.4, Measured: may2018.RC4ChosenPct(), Unit: "%"},
		{ID: "S2c", Name: "servers choosing CBC, Sep 2015", Paper: 54, Measured: sep2015.CBCChosenPct(), Unit: "%"},
		{ID: "S2d", Name: "servers choosing CBC, May 2018", Paper: 35, Measured: may2018.CBCChosenPct(), Unit: "%"},
		{ID: "S2e", Name: "RC4 supported (SSL Pulse), May 2018", Paper: 19.1, Measured: may2018.RC4SupportPct(), Unit: "%"},
		{ID: "S3a", Name: "heartbeat support, May 2018", Paper: 34, Measured: may2018.HeartbeatSupportPct(), Unit: "%"},
		{ID: "S3b", Name: "Heartbleed vulnerable, May 2018", Paper: 0.32, Measured: may2018.HeartbleedVulnerablePct(), Unit: "%"},
		{ID: "S4a", Name: "servers choosing 3DES, Sep 2015", Paper: 0.54, Measured: sep2015.TDESChosenPct(), Unit: "%"},
		{ID: "S4b", Name: "servers choosing 3DES, May 2018", Paper: 0.25, Measured: may2018.TDESChosenPct(), Unit: "%"},
	}
}
