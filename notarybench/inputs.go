package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/simulate"
)

// config holds the sizes of one run. defaultConfig is what the command
// uses; tests shrink it.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool

	setups     int // set-ups per run; setup_s is their median
	workers    int // simulation and log-reload workers
	studyConns int // records per month in the study workload
	poolConns  int // records per month in the served workloads' record pool

	frameRecords  int           // records per binary frame on the ingest workload
	framesPerPost int           // frames per POST /ingest request
	pushInterval  time.Duration // edge → core delta cadence

	queryPool    int // distinct query texts on the dashboard workload
	figuresEvery int // every n-th dashboard request is GET /figures
	cacheEntries int // query result cache bound (the serve default)
	cacheBytes   int64

	hotSet      int     // distinct query texts on the live workload
	liveFrame   int     // records per live POST /ingest
	liveRate    float64 // live POST /ingest requests per second
	liveQueries int     // queries per live round

	maxRounds int // stop after this many rounds (0 = run for measure)

	// skew is added to the tally's first month total, so every check of
	// that month fails; the tests use it to drive the failed-check path.
	skew int
}

func defaultConfig() config {
	return config{
		setups:        3,
		workers:       2,
		studyConns:    200,
		poolConns:     800,
		frameRecords:  2048,
		framesPerPost: 4,
		pushInterval:  25 * time.Millisecond,
		queryPool:     4096,
		figuresEvery:  100,
		cacheEntries:  1024,
		cacheBytes:    8 << 20,
		hotSet:        8,
		liveFrame:     64,
		liveRate:      250,
		liveQueries:   4000,
	}
}

// recSum is the benchmark's own summary of one generated record: just the
// fields its tally counts, copied out of the record before the program
// sees it.
type recSum struct {
	month       int32 // year*12 + month-1
	version     uint16
	fp          int32 // interned fingerprint, -1 when the record has none
	established bool
	heartbeat   bool
	sslv2       bool
}

// inputs is one seeded record set: the records themselves (deep copies),
// their summaries and the tally over all of them.
type inputs struct {
	recs  []*notary.Record
	sums  []recSum
	tally *tally
}

// generate simulates the Feb 2012 – Apr 2018 window at conns records per
// month into the benchmark's tally, keeping a copy of every record when
// keep is set.
func generate(cfg config, conns int, keep bool) (*inputs, error) {
	in := &inputs{tally: newTally()}
	fps := map[string]int32{}
	err := newSimulator(cfg, conns).Run(notary.SinkFunc(func(r *notary.Record) error {
		s := summarize(r, fps)
		in.sums = append(in.sums, s)
		in.tally.add(s)
		if keep {
			in.recs = append(in.recs, r.Clone())
		}
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("simulating inputs: %w", err)
	}
	if cfg.skew != 0 {
		in.tally.months[in.tally.sortedMonths()[0]].total += cfg.skew
	}
	return in, nil
}

// newSimulator is the simulator of the Feb 2012 – Apr 2018 window at conns
// records per month for cfg's seed.
func newSimulator(cfg config, conns int) *simulate.Simulator {
	opts := simulate.DefaultOptions(conns)
	opts.Seed = cfg.seed
	opts.Workers = cfg.workers
	return simulate.New(opts)
}

// describe states the make-up of the inputs for the run's notes.
func (in *inputs) describe() string {
	return fmt.Sprintf("inputs: %d records over %d months, %.1f%% with a fingerprint, %d distinct fingerprints",
		in.tally.n, len(in.tally.months), pct(in.tally.sum("fp-conns", 0), in.tally.n), len(in.tally.fps))
}

func summarize(r *notary.Record, fps map[string]int32) recSum {
	s := recSum{
		month:       int32(r.Date.Year*12 + int(r.Date.Month) - 1),
		fp:          -1,
		established: r.Established,
		heartbeat:   r.OffersHeartbeat,
		sslv2:       r.SSLv2Hello,
	}
	if r.Established {
		s.version = canonicalVersion(uint16(r.Version))
	}
	if r.Fingerprint != "" {
		id, ok := fps[r.Fingerprint]
		if !ok {
			id = int32(len(fps))
			fps[r.Fingerprint] = id
		}
		s.fp = id
	}
	return s
}

// canonicalVersion folds the TLS 1.3 drafts (0x7fXX) and Google's
// experimental 0x7e02 into TLS 1.3, as the paper counts them.
func canonicalVersion(v uint16) uint16 {
	if v>>8 == 0x7f || v == 0x7e02 {
		return 0x0304
	}
	return v
}

// versionNames are the query keys of the negotiated versions the tally
// checks one by one.
var versionNames = map[uint16]string{
	0x0002: "ssl2", 0x0300: "ssl3", 0x0301: "tls10",
	0x0302: "tls11", 0x0303: "tls12", 0x0304: "tls13",
}

// frames encodes recs as binary batch frames of size records each.
func frames(recs []*notary.Record, size int) [][]byte {
	var out [][]byte
	for i := 0; i < len(recs); i += size {
		out = append(out, notary.AppendBatch(nil, recs[i:min(i+size, len(recs))]))
	}
	return out
}

// --- the tally ---

type monthTally struct {
	total, established, heartbeat, sslv2, fpConns int
	version                                       map[uint16]int
	fps                                           map[int32]struct{}
}

// tally counts, per month, what the checked query columns must answer.
type tally struct {
	months map[int32]*monthTally
	fps    map[int32]struct{}
	n      int
}

func newTally() *tally {
	return &tally{months: map[int32]*monthTally{}, fps: map[int32]struct{}{}}
}

func (t *tally) month(m int32) *monthTally {
	mt := t.months[m]
	if mt == nil {
		mt = &monthTally{version: map[uint16]int{}, fps: map[int32]struct{}{}}
		t.months[m] = mt
	}
	return mt
}

func (t *tally) add(s recSum) {
	t.n++
	mt := t.month(s.month)
	mt.total++
	if s.established {
		mt.established++
		mt.version[s.version]++
	}
	if s.heartbeat {
		mt.heartbeat++
	}
	if s.sslv2 {
		mt.sslv2++
	}
	if s.fp >= 0 {
		mt.fpConns++
		mt.fps[s.fp] = struct{}{}
		t.fps[s.fp] = struct{}{}
	}
}

// addTally folds o into t.
func (t *tally) addTally(o *tally) {
	t.n += o.n
	for m, ot := range o.months {
		mt := t.month(m)
		mt.total += ot.total
		mt.established += ot.established
		mt.heartbeat += ot.heartbeat
		mt.sslv2 += ot.sslv2
		mt.fpConns += ot.fpConns
		for v, c := range ot.version {
			mt.version[v] += c
		}
		for fp := range ot.fps {
			mt.fps[fp] = struct{}{}
		}
	}
	for fp := range o.fps {
		t.fps[fp] = struct{}{}
	}
}

func (t *tally) sortedMonths() []int32 {
	out := make([]int32, 0, len(t.months))
	for m := range t.months {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func monthText(m int32) string { return fmt.Sprintf("%04d-%02d", m/12, m%12+1) }

// column is the tally's value of a plain column (or version:<name> when ver
// is set) in month m.
func (t *tally) column(col string, ver uint16, m int32) int {
	mt := t.months[m]
	if mt == nil {
		return 0
	}
	switch col {
	case "total":
		return mt.total
	case "established":
		return mt.established
	case "offers-heartbeat":
		return mt.heartbeat
	case "sslv2-hellos":
		return mt.sslv2
	case "fp-conns":
		return mt.fpConns
	case "fingerprints":
		return len(mt.fps)
	case "version":
		return mt.version[ver]
	}
	panic("notarybench: no tally column " + col)
}

func (t *tally) sum(col string, ver uint16) int {
	s := 0
	for m := range t.months {
		s += t.column(col, ver, m)
	}
	return s
}

// oracleQuery is a query whose answer the tally predicts.
type oracleQuery struct {
	kind  byte // 'c' count(col), 'o' over(version/established), 'a' at(col, month), 'p' at(pct(version/established), month)
	col   string
	ver   uint16
	month int32
}

func (q oracleQuery) column() string {
	if q.col == "version" {
		return "version:" + versionNames[q.ver]
	}
	return q.col
}

func (q oracleQuery) text() string {
	switch q.kind {
	case 'c':
		return "count(" + q.column() + ")"
	case 'o':
		return "over(" + q.column() + " / established)"
	case 'a':
		return "at(" + q.column() + ", " + monthText(q.month) + ")"
	default:
		return "at(pct(" + q.column() + " / established), " + monthText(q.month) + ")"
	}
}

// expect is the tally's answer to q.
func (t *tally) expect(q oracleQuery) float64 {
	switch q.kind {
	case 'c':
		return float64(t.sum(q.col, q.ver))
	case 'o':
		return pct(t.sum(q.col, q.ver), t.sum("established", 0))
	case 'a':
		return float64(t.column(q.col, q.ver, q.month))
	default:
		return pct(t.column(q.col, q.ver, q.month), t.column("established", 0, q.month))
	}
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// near compares a served float with the tally's, allowing for the order in
// which the program sums.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
