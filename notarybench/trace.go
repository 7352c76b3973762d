package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the client span's id to the server-side handler span,
// so the two nest in the trace.
const spanHeader = "X-Bench-Span"

// span is one timed call into the program, recorded by the benchmark around
// a public function (or a loopback request). N is the number of records (or
// other units) the call processed, 0 when it does not apply.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and counter readings in memory until the run ends. A
// nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	phase  string
	spans  []span
	values map[string][]float64 // phase + "\x00" + name
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), phase: "workload", values: map[string][]float64{}}
}

// setPhase labels the spans recorded from now on ("setup", "workload" or
// "probe") and returns the previous label.
func (t *tracer) setPhase(p string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.phase
	t.phase = p
	return prev
}

// spanRef is an open span.
type spanRef struct {
	t  *tracer
	id int32
}

// begin opens a span; end or endN closes it.
func (t *tracer) begin(name string, parent int32) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Phase: t.phase, Start: int64(now.Sub(t.t0))})
	t.mu.Unlock()
	return spanRef{t: t, id: id}
}

func (s spanRef) end() { s.endN(0) }

func (s spanRef) endN(n int64) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	sp := &s.t.spans[s.id-1]
	sp.End = int64(now.Sub(s.t.t0))
	sp.N = n
	s.t.mu.Unlock()
}

// rename changes an open or closed span's name (a query span becomes a hit
// or a miss once the answer says which).
func (s spanRef) rename(name string) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id-1].Name = name
	s.t.mu.Unlock()
}

// value records one reading of a counter or gauge.
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	key := t.phase + "\x00" + name
	t.values[key] = append(t.values[key], v)
	t.mu.Unlock()
}

// closed returns the finished spans called name, preferring the workload's
// own over the probes'.
func (t *tracer) closed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byPhase := map[string][]span{}
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			byPhase[s.Phase] = append(byPhase[s.Phase], s)
		}
	}
	if ss := byPhase["workload"]; len(ss) > 0 {
		return ss
	}
	return byPhase["probe"]
}

// readings returns the values recorded under name, preferring the
// workload's own.
func (t *tracer) readings(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if v := t.values["workload\x00"+name]; len(v) > 0 {
		return append([]float64(nil), v...)
	}
	return append([]float64(nil), t.values["probe\x00"+name]...)
}

// selfTimes sums, per span name and phase, each span's duration minus the
// part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Phase+" "+s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside s.
func covered(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		ks, ke := max(k.Start, s.Start), min(k.End, s.End)
		if ke <= ks {
			continue
		}
		if open && ks <= curE {
			curE = max(curE, ke)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = ks, ke, true
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// report prints each layer's self time, largest first, to stderr.
func (t *tracer) report() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(os.Stderr, "self time by layer (phase, span):")
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-48s %12.3f ms\n", n, float64(self[n])/1e6)
	}
}

// writeFile writes every span as JSON under dir and returns the path.
func (t *tracer) writeFile(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Values map[string][]float64 `json:"values"`
	}{t.spans, t.values})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// traceHandler wraps a server's handler so the time inside it is a span,
// named by route, nested under the client's span when the request says
// which.
func traceHandler(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 32)
		name := "service.handler " + r.Method + " " + r.URL.Path
		switch r.URL.Path {
		case "/query":
			name = "service.query_handler"
		case "/figures":
			name = "service.figures_handler"
		case "/ingest":
			name = "service.ingest_handler"
		case "/merge":
			name = "service.merge_handler"
		}
		sp := t.begin(name, int32(parent))
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// tagSpan marks an outgoing request with the client span's id.
func tagSpan(req *http.Request, s spanRef) {
	if s.t != nil {
		req.Header.Set(spanHeader, strconv.Itoa(int(s.id)))
	}
}
