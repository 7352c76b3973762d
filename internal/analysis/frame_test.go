package analysis

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"tlsage/internal/notary"
	"tlsage/internal/simulate"
	"tlsage/internal/timeline"
)

// requireFigureEqual asserts got reproduces want exactly: same identity,
// same series in the same order, bit-identical point values, same events.
func requireFigureEqual(t *testing.T, want, got Figure) {
	t.Helper()
	if got.ID != want.ID || got.Title != want.Title {
		t.Fatalf("figure identity: got %q/%q, want %q/%q", got.ID, got.Title, want.ID, want.Title)
	}
	if len(got.Series) != len(want.Series) {
		t.Fatalf("%s: %d series, want %d", want.ID, len(got.Series), len(want.Series))
	}
	for i := range want.Series {
		ws, gs := want.Series[i], got.Series[i]
		if gs.Name != ws.Name {
			t.Fatalf("%s series %d: name %q, want %q", want.ID, i, gs.Name, ws.Name)
		}
		if len(gs.Points) != len(ws.Points) {
			t.Fatalf("%s %s: %d points, want %d", want.ID, ws.Name, len(gs.Points), len(ws.Points))
		}
		for j := range ws.Points {
			wp, gp := ws.Points[j], gs.Points[j]
			if gp.Month != wp.Month {
				t.Fatalf("%s %s point %d: month %v, want %v", want.ID, ws.Name, j, gp.Month, wp.Month)
			}
			if gp.Value != wp.Value {
				t.Fatalf("%s %s at %v: value %v, want %v (exact parity required)",
					want.ID, ws.Name, wp.Month, gp.Value, wp.Value)
			}
		}
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%s: events %v, want %v", want.ID, got.Events, want.Events)
	}
}

// TestFrameFigureParity is the golden parity test of the refactor: every
// catalog figure built from the Frame must exactly equal the seed's
// map-walking output on a fixed-seed study.
func TestFrameFigureParity(t *testing.T) {
	agg := sharedAgg(t)
	f := sharedFrame(t)

	legacy := legacyAllFigures(agg)
	frame := f.Figures()
	if len(frame) != len(legacy) {
		t.Fatalf("%d frame figures, want %d", len(frame), len(legacy))
	}
	for i := range legacy {
		requireFigureEqual(t, legacy[i], frame[i])
	}

	ext, ok := f.FigureByName("extensions")
	if !ok {
		t.Fatal("extensions figure missing")
	}
	requireFigureEqual(t, legacyExtensionUptake(agg), ext)
}

// TestFrameScalarParity pins the scalar pipeline to the seed output.
func TestFrameScalarParity(t *testing.T) {
	agg := sharedAgg(t)
	f := sharedFrame(t)

	want := legacyPassiveScalars(agg)
	got := PassiveScalarsFrame(f)
	if len(got) != len(want) {
		t.Fatalf("%d scalars, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("scalar %s: got %+v, want %+v", want[i].ID, got[i], want[i])
		}
	}

	if !reflect.DeepEqual(CurveSharesFrame(f), legacyCurveSharesOverall(agg)) {
		t.Error("curve shares diverge from the map-walking output")
	}
	if !reflect.DeepEqual(TLS13VariantSharesFrame(f), legacyTLS13VariantShares(agg)) {
		t.Error("TLS 1.3 variant shares diverge from the map-walking output")
	}
}

// monthSplitSink shards a record stream across two aggregates by month
// parity — the same month-granular partitioning the parallel simulation
// pipeline uses, so per-month counters never split across shards.
type monthSplitSink struct {
	a, b *notary.Aggregate
}

func (s *monthSplitSink) Observe(r *notary.Record) error {
	if timeline.MonthOf(r.Date).Index()%2 == 0 {
		s.a.Add(r)
	} else {
		s.b.Add(r)
	}
	return nil
}

func (s *monthSplitSink) Close() error { return nil }

// TestFrameMergeProperty: the frame of merged shard aggregates equals the
// frame of the unsharded stream.
func TestFrameMergeProperty(t *testing.T) {
	opts := simulate.DefaultOptions(150)
	opts.End = timeline.M(2013, time.December)
	opts.Workers = 1

	whole := notary.NewAggregate()
	split := &monthSplitSink{a: notary.NewAggregate(), b: notary.NewAggregate()}
	if err := simulate.New(opts).Run(notary.Tee(whole, split)); err != nil {
		t.Fatal(err)
	}

	merged := notary.NewAggregate()
	merged.Merge(split.a)
	merged.Merge(split.b)

	fWhole, fMerged := NewFrame(whole), NewFrame(merged)
	if !reflect.DeepEqual(fWhole, fMerged) {
		t.Fatal("Frame(merge(a, b)) != Frame(unsharded stream)")
	}
}

func TestFrameRowAndSeriesIndex(t *testing.T) {
	f := sharedFrame(t)
	if f.Len() == 0 {
		t.Fatal("empty frame")
	}
	for i, m := range f.Months {
		if row, ok := f.Row(m); !ok || row != i {
			t.Fatalf("Row(%v) = %d,%v, want %d,true", m, row, ok, i)
		}
	}
	if _, ok := f.Row(timeline.M(1999, time.January)); ok {
		t.Error("row for unobserved month")
	}

	fig, _ := f.FigureByNum(1)
	s := fig.Series[0]
	if s.index == nil {
		t.Fatal("frame-built series carries no month index")
	}
	// The indexed lookup must agree with a linear scan over the points.
	linear := Series{Name: s.Name, Points: s.Points}
	for _, m := range f.Months {
		want, wantOK := linear.Value(m)
		got, gotOK := s.Value(m)
		if got != want || gotOK != wantOK {
			t.Fatalf("indexed Value(%v) = %v,%v, want %v,%v", m, got, gotOK, want, wantOK)
		}
	}
	if _, ok := s.Value(timeline.M(1999, time.January)); ok {
		t.Error("indexed lookup reported a missing month present")
	}
}

func TestFrameStalenessGeneration(t *testing.T) {
	opts := simulate.DefaultOptions(40)
	opts.End = timeline.M(2012, time.June)
	agg, err := simulate.New(opts).RunAggregate()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrame(agg)
	if f.Generation() != agg.Generation() {
		t.Fatalf("fresh frame generation %d != aggregate %d", f.Generation(), agg.Generation())
	}
	more, err := simulate.New(opts).RunAggregate()
	if err != nil {
		t.Fatal(err)
	}
	agg.Merge(more) // ingest more records: the frame must become stale
	if f.Generation() == agg.Generation() {
		t.Error("frame not detectably stale after aggregate mutation")
	}
	if NewFrame(agg).Generation() != agg.Generation() {
		t.Error("rebuilt frame generation lags the aggregate")
	}
}

// TestFrameCounterColumns: every notary.Counters row is a listed named
// column that reads the row's per-month counter.
func TestFrameCounterColumns(t *testing.T) {
	agg := sharedAgg(t)
	f := sharedFrame(t)
	listed := make(map[string]bool)
	for _, n := range ColumnNames() {
		listed[n] = true
	}
	for _, c := range notary.Counters {
		if !listed[c.Name] {
			t.Errorf("counter %q is not listed by ColumnNames", c.Name)
			continue
		}
		col := namedColumns[c.Name](f)
		for i, m := range f.Months {
			if want := *c.Field(agg.Stats(m)); col[i] != want {
				t.Fatalf("column %q at %v = %d, want %d", c.Name, m, col[i], want)
			}
		}
	}
}

func TestCatalogLookups(t *testing.T) {
	specs := Catalog()
	if len(specs) != 12 {
		t.Fatalf("catalog has %d entries, want 12 (Figures 1-10 + E1 + E2)", len(specs))
	}
	names := map[string]bool{}
	for _, spec := range specs {
		if spec.ID == "" || spec.Name == "" || spec.Title == "" || len(spec.Metrics) == 0 {
			t.Errorf("malformed spec %+v", spec)
		}
		if names[spec.Name] {
			t.Errorf("duplicate catalog name %q", spec.Name)
		}
		names[spec.Name] = true
		byName, ok := SpecByName(spec.Name)
		if !ok || byName.ID != spec.ID {
			t.Errorf("SpecByName(%q) failed", spec.Name)
		}
	}
	for n := 1; n <= 10; n++ {
		spec, ok := SpecByNum(n)
		if !ok {
			t.Fatalf("no spec for figure %d", n)
		}
		if want := fmt.Sprintf("Figure %d", n); spec.ID != want {
			t.Errorf("SpecByNum(%d).ID = %q, want %q", n, spec.ID, want)
		}
	}
	if _, ok := SpecByNum(11); ok {
		t.Error("SpecByNum(11) should not resolve")
	}
	if _, ok := SpecByNum(0); ok {
		t.Error("SpecByNum(0) must not leak the extras")
	}
	if _, ok := SpecByName("no-such-figure"); ok {
		t.Error("SpecByName on unknown name should fail")
	}
}
