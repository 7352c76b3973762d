package notary

import "tlsage/internal/registry"

// Counter describes one plain per-month counter of MonthStats: an int that
// Add increments, Merge sums, the snapshot codec writes as one varint and
// the analysis frame turns into one dense named column.
type Counter struct {
	// Name is the query column name, e.g. "adv-rc4".
	Name string
	// Field returns a pointer to the counter inside ms.
	Field func(ms *MonthStats) *int
	// Class, when non-zero, is the advertised suite class Add counts the
	// counter on: the counter increments once per hello whose GREASE-stripped
	// cipher list holds a suite of that class.
	Class registry.ClassBits
}

// Counters is the per-month counter schema, written once: every layer
// (Add, Merge, the snapshot codec, analysis.NewFrame and the query
// vocabulary) iterates this table instead of naming the counters itself.
// Total and Established are the denominators and stay outside it.
//
// Adding a counter means one MonthStats field, one row here and, unless a
// class bit drives it, one increment in Add. Rows are in snapshot wire
// order: any change to the list changes the payload, so it needs a
// SnapshotVersion bump and a decode path for older payloads (the recorded
// compat fixtures fail on a silent change).
var Counters = []Counter{
	{"adv-rc4", func(ms *MonthStats) *int { return &ms.AdvRC4 }, registry.ClassRC4},
	{"adv-des", func(ms *MonthStats) *int { return &ms.AdvDES }, registry.ClassDES},
	{"adv-3des", func(ms *MonthStats) *int { return &ms.Adv3DES }, registry.Class3DES},
	{"adv-aead", func(ms *MonthStats) *int { return &ms.AdvAEAD }, registry.ClassAEAD},
	{"adv-export", func(ms *MonthStats) *int { return &ms.AdvExport }, registry.ClassExport},
	{"adv-anon", func(ms *MonthStats) *int { return &ms.AdvAnon }, registry.ClassAnon},
	{"adv-null", func(ms *MonthStats) *int { return &ms.AdvNULL }, registry.ClassNULL},
	{"adv-aes128-gcm", func(ms *MonthStats) *int { return &ms.AdvAESGCM128 }, registry.ClassGCM128},
	{"adv-aes256-gcm", func(ms *MonthStats) *int { return &ms.AdvAESGCM256 }, registry.ClassGCM256},
	{"adv-chacha", func(ms *MonthStats) *int { return &ms.AdvChaCha }, registry.ClassChaCha},
	{"adv-ccm", func(ms *MonthStats) *int { return &ms.AdvCCM }, registry.ClassCCM},
	{"adv-tls13", func(ms *MonthStats) *int { return &ms.AdvTLS13 }, 0},
	{"offers-heartbeat", func(ms *MonthStats) *int { return &ms.OffersHeartbeatN }, 0},
	{"heartbeat-ack", func(ms *MonthStats) *int { return &ms.HeartbeatAckN }, 0},
	{"null-negotiated", func(ms *MonthStats) *int { return &ms.NULLNegotiated }, 0},
	{"anon-negotiated", func(ms *MonthStats) *int { return &ms.AnonNegotiated }, 0},
	{"export-negotiated", func(ms *MonthStats) *int { return &ms.ExportNegotiated }, 0},
	{"unoffered-choice", func(ms *MonthStats) *int { return &ms.UnofferedChoice }, 0},
	{"sslv2-hellos", func(ms *MonthStats) *int { return &ms.SSLv2Hellos }, 0},
}
