package notary

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"tlsage/internal/registry"
	"tlsage/internal/timeline"
)

// Snapshot codec: a versioned, length-prefixed binary encoding of an
// Aggregate. It is the durability format of the live service (periodic
// snapshot-to-disk, restart recovery) and the future federation wire format
// (shipping merged aggregate deltas upstream costs O(months×counters)
// instead of O(records)).
//
// Frame layout:
//
//	offset  size  field
//	0       4     magic "TLSN"
//	4       1     version byte (SnapshotVersion)
//	5       8     payload length, uint64 little-endian
//	13      N     payload (varint-packed counters, see below)
//	13+N    4     CRC32-IEEE of the payload, little-endian
//
// The payload packs the generation, every MonthStats (counters, maps,
// fingerprint capability sets) and the fingerprint lifetime maps. Map
// entries are written in sorted key order, so encoding is deterministic:
// equal aggregate content yields equal bytes. All integer counters are
// unsigned varints; float64 position sums are fixed 8-byte little-endian
// IEEE 754.
//
// Decoding is defensive: every length is bounds-checked against the bytes
// actually present, so arbitrary or corrupted input yields an error — never
// a panic or an implausible allocation (fuzzed by FuzzReadSnapshot).

// snapshotMagic brands snapshot files/streams.
const snapshotMagic = "TLSN"

// SnapshotVersion is the wire-format version byte written by this build.
// Version 2 appended the per-month ByFingerprint/ByClientClass attribution
// maps after the FPs table. Readers accept snapshotMinVersion through
// SnapshotVersion — a version-1 snapshot still decodes, with the attribution
// maps left empty — and reject anything newer, so the format can evolve
// without silent misdecodes.
const SnapshotVersion = 2

// snapshotMinVersion is the oldest snapshot version this build still reads.
const snapshotMinVersion = 1

// snapshotHeaderLen is magic + version + payload length.
const snapshotHeaderLen = len(snapshotMagic) + 1 + 8

// maxSnapshotPayload caps the payload length a reader will believe. A real
// snapshot of the multi-year study is a few MiB; a corrupt length field must
// not drive a multi-GiB allocation.
const maxSnapshotPayload = 1 << 32

// EncodeSnapshot appends the complete framed snapshot of a to dst and
// returns the extended slice. Encoding is deterministic for equal content.
func EncodeSnapshot(dst []byte, a *Aggregate) []byte {
	dst = append(dst, snapshotMagic...)
	dst = append(dst, SnapshotVersion)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // payload length backfilled below
	payloadAt := len(dst)
	dst = appendSnapshotPayload(dst, a)
	payload := dst[payloadAt:]
	binary.LittleEndian.PutUint64(dst[lenAt:], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// WriteSnapshot writes the framed snapshot of a to w.
func WriteSnapshot(w io.Writer, a *Aggregate) error {
	_, err := w.Write(EncodeSnapshot(nil, a))
	return err
}

// ReadSnapshot reads one framed snapshot from r and decodes it. Truncated,
// corrupted or version-mismatched input yields an error; the returned
// aggregate is nil unless the checksum and every field decoded cleanly.
func ReadSnapshot(r io.Reader) (*Aggregate, error) {
	var hdr [13]byte // snapshotHeaderLen
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("notary: snapshot header: %w", err)
	}
	if string(hdr[:4]) != snapshotMagic {
		return nil, fmt.Errorf("notary: not a snapshot (bad magic %q)", hdr[:4])
	}
	if hdr[4] < snapshotMinVersion || hdr[4] > SnapshotVersion {
		return nil, fmt.Errorf("notary: snapshot version %d, this build reads %d..%d",
			hdr[4], snapshotMinVersion, SnapshotVersion)
	}
	version := hdr[4]
	n := binary.LittleEndian.Uint64(hdr[5:])
	if n > maxSnapshotPayload {
		return nil, fmt.Errorf("notary: implausible snapshot payload length %d", n)
	}
	// LimitReader + ReadAll grows with the bytes actually present, so a
	// corrupt length over a short stream fails without a huge up-front
	// allocation.
	body, err := io.ReadAll(io.LimitReader(r, int64(n)+4))
	if err != nil {
		return nil, fmt.Errorf("notary: snapshot body: %w", err)
	}
	if uint64(len(body)) != n+4 {
		return nil, fmt.Errorf("notary: truncated snapshot: %d payload+trailer bytes, want %d", len(body), n+4)
	}
	payload, trailer := body[:n], body[n:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("notary: snapshot checksum mismatch (%08x, want %08x)", got, want)
	}
	return decodeSnapshotPayload(payload, version)
}

// AppendAggregatePayload appends the snapshot codec's bare varint-packed
// payload of a to dst — no magic, length prefix or checksum trailer. The
// federation delta frame embeds this payload inside its own framing so the
// two wire formats share one (deterministic, fuzz-hardened) aggregate
// encoding instead of nesting complete frames.
func AppendAggregatePayload(dst []byte, a *Aggregate) []byte {
	return appendSnapshotPayload(dst, a)
}

// DecodeAggregatePayload decodes a payload written by AppendAggregatePayload
// at the given snapshot payload version (SnapshotVersion when encoding with
// this build). Trailing bytes, corrupt fields and out-of-range versions all
// error; arbitrary input never panics.
func DecodeAggregatePayload(b []byte, version byte) (*Aggregate, error) {
	if version < snapshotMinVersion || version > SnapshotVersion {
		return nil, fmt.Errorf("notary: aggregate payload version %d, this build reads %d..%d",
			version, snapshotMinVersion, SnapshotVersion)
	}
	return decodeSnapshotPayload(b, version)
}

// DecodeSnapshot decodes one framed snapshot from b (exactly one frame; no
// trailing bytes are tolerated).
func DecodeSnapshot(b []byte) (*Aggregate, error) {
	r := newExactReader(b)
	a, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("notary: %d trailing bytes after snapshot frame", len(b)-r.off)
	}
	return a, nil
}

// exactReader is a bytes.Reader variant whose ReadAll path sees EOF exactly
// at the end of b, and which lets DecodeSnapshot reject trailing garbage.
type exactReader struct {
	b   []byte
	off int
}

func newExactReader(b []byte) *exactReader { return &exactReader{b: b} }

func (e *exactReader) Read(p []byte) (int, error) {
	if e.off >= len(e.b) {
		return 0, io.EOF
	}
	n := copy(p, e.b[e.off:])
	e.off += n
	return n, nil
}

// --- payload encoding ---

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendCount(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

func appendString(dst []byte, s string) []byte {
	dst = appendCount(dst, len(s))
	return append(dst, s...)
}

func appendFloat64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendDateEnc(dst []byte, d timeline.Date) []byte {
	dst = appendCount(dst, d.Year)
	dst = appendCount(dst, int(d.Month))
	return appendCount(dst, d.Day)
}

// appendU16Map encodes a map keyed by a uint16-backed code point type in
// sorted key order.
func appendU16Map[K ~uint8 | ~uint16](dst []byte, m map[K]int) []byte {
	dst = appendCount(dst, len(m))
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		dst = appendUvarint(dst, uint64(k))
		dst = appendCount(dst, m[k])
	}
	return dst
}

func sortedStringKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendStrIntMap(dst []byte, m map[string]int) []byte {
	dst = appendCount(dst, len(m))
	for _, k := range sortedStringKeys(m) {
		dst = appendString(dst, k)
		dst = appendCount(dst, m[k])
	}
	return dst
}

// FPCaps flag bits in the snapshot encoding.
const (
	fpRC4 = 1 << iota
	fpDES
	fpTDES
	fpAEAD
	fpNULL
	fpAnon
	fpExport
)

func fpCapsByte(c *FPCaps) byte {
	var b byte
	if c.RC4 {
		b |= fpRC4
	}
	if c.DES {
		b |= fpDES
	}
	if c.TDES {
		b |= fpTDES
	}
	if c.AEAD {
		b |= fpAEAD
	}
	if c.NULLc {
		b |= fpNULL
	}
	if c.Anon {
		b |= fpAnon
	}
	if c.Export {
		b |= fpExport
	}
	return b
}

func fpCapsFromByte(b byte, count int) *FPCaps {
	return &FPCaps{
		RC4:    b&fpRC4 != 0,
		DES:    b&fpDES != 0,
		TDES:   b&fpTDES != 0,
		AEAD:   b&fpAEAD != 0,
		NULLc:  b&fpNULL != 0,
		Anon:   b&fpAnon != 0,
		Export: b&fpExport != 0,
		Count:  count,
	}
}

func appendSnapshotPayload(dst []byte, a *Aggregate) []byte {
	dst = appendUvarint(dst, a.generation)
	months := a.Months()
	dst = appendCount(dst, len(months))
	for _, m := range months {
		dst = appendMonthStats(dst, a.months[m])
	}
	// Fingerprint lifetimes: fpFirst, fpLast and fpConns always share one
	// key set (Add fills all three together, Merge preserves that), so one
	// row carries all three values.
	dst = appendCount(dst, len(a.fpFirst))
	for _, fp := range sortedStringKeys(a.fpFirst) {
		dst = appendString(dst, fp)
		dst = appendDateEnc(dst, a.fpFirst[fp])
		dst = appendDateEnc(dst, a.fpLast[fp])
		dst = appendUvarint(dst, uint64(a.fpConns[fp]))
	}
	return dst
}

func appendMonthStats(dst []byte, ms *MonthStats) []byte {
	dst = appendCount(dst, ms.Month.Year)
	dst = appendCount(dst, int(ms.Month.M))
	dst = appendCount(dst, ms.Total)
	dst = appendCount(dst, ms.Established)
	dst = appendU16Map(dst, ms.ByVersion)
	dst = appendStrIntMap(dst, ms.ByClass)
	dst = appendU16Map(dst, ms.ByKex)
	dst = appendU16Map(dst, ms.BySuite)
	dst = appendU16Map(dst, ms.ByCurve)
	dst = appendU16Map(dst, ms.TLS13Variant)
	dst = appendU16Map(dst, ms.ByExtension)
	for _, c := range Counters {
		dst = appendCount(dst, *c.Field(ms))
	}
	dst = appendCount(dst, len(ms.PosSum))
	for _, k := range sortedStringKeys(ms.PosSum) {
		dst = appendString(dst, k)
		dst = appendFloat64(dst, ms.PosSum[k])
	}
	dst = appendStrIntMap(dst, ms.PosCount)
	dst = appendCount(dst, len(ms.FPs))
	for _, fp := range sortedStringKeys(ms.FPs) {
		caps := ms.FPs[fp]
		dst = appendString(dst, fp)
		dst = append(dst, fpCapsByte(caps))
		dst = appendCount(dst, caps.Count)
	}
	// Version 2: per-month attribution maps.
	dst = appendStrIntMap(dst, ms.ByFingerprint)
	return appendStrIntMap(dst, ms.ByClientClass)
}

// --- payload decoding ---

// snapDecoder consumes the payload with sticky error handling: the first
// malformed field poisons the decoder, every later read returns zero, and
// the caller checks err once at the end. All bounds checks live here, so
// arbitrary bytes can never index out of range or allocate beyond what the
// payload can actually describe.
type snapDecoder struct {
	b   []byte
	off int
	err error
	// what names the payload kind in error messages ("snapshot" when empty).
	// The batch codec reuses the decoder for its frame payloads.
	what string
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		what := d.what
		if what == "" {
			what = "snapshot"
		}
		d.err = fmt.Errorf("notary: "+what+" payload: "+format, args...)
	}
}

func (d *snapDecoder) remaining() int { return len(d.b) - d.off }

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a non-negative int-sized counter. The bound tracks the
// platform int so the conversion can never wrap negative on 32-bit builds,
// and stays at half the range so decoded counters survive summing.
func (d *snapDecoder) count() int {
	v := d.uvarint()
	if v > uint64(math.MaxInt)/2 {
		d.fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

// length reads a collection/string length and checks it against the bytes
// left (each encoded element needs at least min bytes).
func (d *snapDecoder) length(min int) int {
	n := d.count()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > d.remaining()/min {
		d.fail("length %d exceeds remaining %d bytes", n, d.remaining())
		return 0
	}
	return n
}

func (d *snapDecoder) str() string {
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *snapDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("unexpected end of payload")
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func (d *snapDecoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("unexpected end of payload in float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return f
}

func (d *snapDecoder) u16() uint16 {
	v := d.uvarint()
	if v > math.MaxUint16 {
		d.fail("code point %d exceeds uint16", v)
		return 0
	}
	return uint16(v)
}

func (d *snapDecoder) date() timeline.Date {
	y := d.count()
	m := d.count()
	day := d.count()
	if d.err != nil {
		return timeline.Date{}
	}
	if m < 1 || m > 12 {
		d.fail("bad month %d in date", m)
		return timeline.Date{}
	}
	return timeline.Date{Year: y, Month: time.Month(m), Day: day}
}

func decodeU16Map[K ~uint8 | ~uint16](d *snapDecoder, max uint64) map[K]int {
	n := d.length(2)
	m := make(map[K]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.uvarint()
		if k > max {
			d.fail("map key %d out of range", k)
			return m
		}
		m[K(k)] = d.count()
	}
	return m
}

func (d *snapDecoder) strIntMap() map[string]int {
	n := d.length(2)
	m := make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		m[k] = d.count()
	}
	return m
}

func decodeSnapshotPayload(b []byte, version byte) (*Aggregate, error) {
	d := &snapDecoder{b: b}
	a := NewAggregate()
	a.generation = d.uvarint()
	nMonths := d.length(4)
	for i := 0; i < nMonths && d.err == nil; i++ {
		ms := decodeMonthStats(d, version)
		if d.err != nil {
			break
		}
		if _, dup := a.months[ms.Month]; dup {
			d.fail("duplicate month %v", ms.Month)
			break
		}
		a.months[ms.Month] = ms
	}
	nFP := d.length(4)
	for i := 0; i < nFP && d.err == nil; i++ {
		fp := d.str()
		first := d.date()
		last := d.date()
		conns := d.uvarint()
		if d.err != nil {
			break
		}
		if _, dup := a.fpFirst[fp]; dup {
			d.fail("duplicate fingerprint %q", fp)
			break
		}
		a.fpFirst[fp] = first
		a.fpLast[fp] = last
		a.fpConns[fp] = int64(conns)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("notary: snapshot payload: %d trailing bytes", d.remaining())
	}
	return a, nil
}

func decodeMonthStats(d *snapDecoder, version byte) *MonthStats {
	year := d.count()
	month := d.count()
	if d.err == nil && (month < 1 || month > 12) {
		d.fail("bad month number %d", month)
	}
	ms := newMonthStats(timeline.Month{Year: year, M: time.Month(month)})
	ms.Total = d.count()
	ms.Established = d.count()
	ms.ByVersion = decodeU16Map[registry.Version](d, math.MaxUint16)
	ms.ByClass = d.strIntMap()
	ms.ByKex = decodeU16Map[registry.KeyExchange](d, math.MaxUint8)
	ms.BySuite = decodeU16Map[uint16](d, math.MaxUint16)
	ms.ByCurve = decodeU16Map[registry.CurveID](d, math.MaxUint16)
	ms.TLS13Variant = decodeU16Map[registry.Version](d, math.MaxUint16)
	ms.ByExtension = decodeU16Map[registry.ExtensionID](d, math.MaxUint16)
	for _, c := range Counters {
		*c.Field(ms) = d.count()
	}
	nPos := d.length(9)
	for i := 0; i < nPos && d.err == nil; i++ {
		k := d.str()
		ms.PosSum[k] = d.float64()
	}
	ms.PosCount = d.strIntMap()
	nFPs := d.length(3)
	for i := 0; i < nFPs && d.err == nil; i++ {
		fp := d.str()
		flags := d.byte()
		count := d.count()
		if d.err != nil {
			break
		}
		ms.FPs[fp] = fpCapsFromByte(flags, count)
	}
	if version >= 2 {
		ms.ByFingerprint = d.strIntMap()
		ms.ByClientClass = d.strIntMap()
	}
	return ms
}
