package notary

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tlsage/internal/registry"
)

// compatFixtureRecords builds the deterministic record stream behind the
// recorded testdata/{snapshot,batch}_v<N>.bin fixtures. Each fixture was
// written by the version-N codec (RECORD_COMPAT_FIXTURES=1 on a tree whose
// codecs wrote version N); regenerating one under a newer codec would defeat
// the point of the compatibility tests, so the recorder below is guarded and
// never overwrites a recorded file.
func compatFixtureRecords() []*Record {
	rnd := rand.New(rand.NewSource(99))
	all := registry.AllSuites()
	recs := make([]*Record, 400)
	for i := range recs {
		recs[i] = randomRecord(rnd, all)
	}
	return recs
}

func compatFixtureAggregate() *Aggregate {
	agg := NewAggregate()
	for _, r := range compatFixtureRecords() {
		agg.Add(r)
	}
	return agg
}

// TestRecordCompatFixtures records the fixtures for the codec versions this
// build writes (snapshot_v<SnapshotVersion>.bin, batch_v<BatchVersion>.bin).
// It only runs when RECORD_COMPAT_FIXTURES is set, and it skips any fixture
// that already exists: recorded bytes pin what older builds wrote, so they
// are never rewritten by a newer codec.
func TestRecordCompatFixtures(t *testing.T) {
	if os.Getenv("RECORD_COMPAT_FIXTURES") == "" {
		t.Skip("set RECORD_COMPAT_FIXTURES=1 to record fixtures for the current codec versions")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	record := func(name string, b []byte) {
		path := filepath.Join("testdata", name)
		if _, err := os.Stat(path); err == nil {
			t.Logf("%s already recorded; left untouched", path)
			return
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	record(fmt.Sprintf("snapshot_v%d.bin", SnapshotVersion), EncodeSnapshot(nil, compatFixtureAggregate()))
	record(fmt.Sprintf("batch_v%d.bin", BatchVersion), EncodeBatch(compatFixtureRecords()))
}

// readFixture loads a recorded fixture and checks that its version byte
// matches the version in its name.
func readFixture(t *testing.T, name string, version byte) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 5 {
		t.Fatalf("fixture %s too short (%d bytes)", name, len(b))
	}
	if b[4] != version {
		t.Fatalf("fixture %s carries version %d, want recorded version %d", name, b[4], version)
	}
	return b
}

// TestSnapshotV1Decodes: a genuine version-1 snapshot (recorded before the
// attribution counters existed) must decode under the version-2 reader with
// every pre-existing counter intact and the ByFingerprint/ByClientClass maps
// empty — an upgrade must not force a re-ingest.
func TestSnapshotV1Decodes(t *testing.T) {
	got, err := DecodeSnapshot(readFixture(t, "snapshot_v1.bin", 1))
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	want := compatFixtureAggregate()
	fpVolume := 0
	for _, m := range want.Months() {
		ms := want.Stats(m)
		fpVolume += len(ms.ByFingerprint)
		// A v1 payload carries no attribution maps; the decoder leaves them
		// allocated but empty.
		ms.ByFingerprint = make(map[string]int)
		ms.ByClientClass = make(map[string]int)
	}
	if fpVolume == 0 {
		t.Fatal("fixture has no fingerprint volume at all — weak fixture")
	}
	for _, m := range got.Months() {
		gms := got.Stats(m)
		if len(gms.ByFingerprint) != 0 || len(gms.ByClientClass) != 0 {
			t.Fatalf("month %v: v1 decode invented attribution counters", m)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("v1 snapshot decode differs from replayed fixture records")
	}
}

// TestBatchV1Decodes: a version-1 batch stream decodes under the version-2
// reader; the record payload never changed, so ingesting it fills the new
// attribution counters exactly as a live stream would.
func TestBatchV1Decodes(t *testing.T) {
	raw := readFixture(t, "batch_v1.bin", 1)
	got := NewAggregate()
	frames, records, err := ReadBatches(bytes.NewReader(raw), got)
	if err != nil {
		t.Fatalf("v1 batch rejected: %v", err)
	}
	want := compatFixtureAggregate()
	if records != uint64(want.TotalRecords()) {
		t.Fatalf("decoded %d records from %d frames, want %d", records, frames, want.TotalRecords())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("v1 batch ingest differs from replayed fixture records")
	}
}

// TestUnknownNewerVersionsRejected: versions beyond what this build writes
// still fail loudly — forward compatibility is an explicit error, never a
// misdecode.
func TestUnknownNewerVersionsRejected(t *testing.T) {
	snap := append([]byte(nil), readFixture(t, "snapshot_v1.bin", 1)...)
	snap[4] = SnapshotVersion + 1
	if _, err := DecodeSnapshot(snap); err == nil {
		t.Error("snapshot version beyond current accepted")
	}
	batch := append([]byte(nil), readFixture(t, "batch_v1.bin", 1)...)
	batch[4] = BatchVersion + 1
	if _, _, err := ReadBatches(bytes.NewReader(batch), NewAggregate()); err == nil {
		t.Error("batch version beyond current accepted")
	}
}

// TestSnapshotV2Pinned: the recorded version-2 snapshot decodes to the
// replayed fixture aggregate and re-encodes to the identical bytes. A
// round-trip test alone cannot see encoder and decoder being reordered
// together; this fixture can, and such a reorder would silently misdecode
// every v2 snapshot and federation delta already on disk.
func TestSnapshotV2Pinned(t *testing.T) {
	raw := readFixture(t, "snapshot_v2.bin", 2)
	got, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
	if !reflect.DeepEqual(got, compatFixtureAggregate()) {
		t.Fatal("v2 snapshot decode differs from replayed fixture records")
	}
	if !bytes.Equal(EncodeSnapshot(nil, got), raw) {
		t.Fatal("v2 snapshot does not re-encode to its recorded bytes")
	}
}

// TestBatchV2Decodes: the recorded version-2 batch stream ingests to the
// replayed fixture aggregate.
func TestBatchV2Decodes(t *testing.T) {
	got := NewAggregate()
	if _, _, err := ReadBatches(bytes.NewReader(readFixture(t, "batch_v2.bin", 2)), got); err != nil {
		t.Fatalf("v2 batch rejected: %v", err)
	}
	if !reflect.DeepEqual(got, compatFixtureAggregate()) {
		t.Fatal("v2 batch ingest differs from replayed fixture records")
	}
}
