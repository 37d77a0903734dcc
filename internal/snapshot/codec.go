package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"hardsnap/internal/sim"
	"hardsnap/internal/target"
)

const digestLen = len(Digest{})

// SortedNames returns m's keys in the order every encoder writes them.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AppendU32 appends a count or length.
func AppendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

// AppendU64 appends a counter or a 64-bit value.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendName appends a length-prefixed name.
func AppendName(b []byte, s string) []byte { return append(AppendU32(b, len(s)), s...) }

// AppendChunk appends one peripheral state as len(4) state[len], a nil
// state as the empty one. The state bytes are canonical — equal states
// yield equal bytes — and are what HWDigest hashes: the names come from
// the state's layout, which lists each section sorted.
func AppendChunk(b []byte, hw *sim.HWState) []byte {
	l, v := hw.Layout(), hw.Vals()
	at := len(b)
	b = append(b, 0, 0, 0, 0)
	b = AppendU32(b, len(l.Regs))
	for i, name := range l.Regs {
		b = binary.LittleEndian.AppendUint64(AppendName(b, name), v[i])
	}
	v = v[len(l.Regs):]
	b = AppendU32(b, len(l.Mems))
	for i, name := range l.Mems {
		b = AppendU32(AppendName(b, name), l.Depths[i])
		for _, w := range v[:l.Depths[i]] {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		v = v[l.Depths[i]:]
	}
	b = AppendU32(b, len(l.Inputs))
	for i, name := range l.Inputs {
		b = binary.LittleEndian.AppendUint64(AppendName(b, name), v[i])
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// HWDigest content-addresses one peripheral's state: the SHA-256 of
// its state bytes. The store's intern pool is keyed by it and the
// remote protocol negotiates by it, so a chunk either end of that
// wire already holds never crosses it again.
func HWDigest(hw *sim.HWState) Digest {
	var stack [2048]byte
	return sha256.Sum256(AppendChunk(stack[:0], hw)[4:])
}

// Reader is a bounds-checked cursor over one encoded body. The first
// failure sticks and empties the cursor, so a decoder reads straight
// through and checks once, at End.
type Reader struct {
	p   []byte
	err error
}

// NewReader starts a cursor at the head of p.
func NewReader(p []byte) *Reader { return &Reader{p: p} }

// Fail records a decoding failure, if none came first, and empties the
// cursor.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
	r.p = nil
}

// take consumes n bytes. Past the end it fails and yields zeros: n is
// then a fixed field width, since count vets every variable length.
func (r *Reader) take(n int) []byte {
	if n > len(r.p) {
		r.Fail("truncated body (%d bytes wanted, %d left)", n, len(r.p))
		return make([]byte, n)
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *Reader) U8() byte    { return r.take(1)[0] }
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// Uvarint reads a value binary.AppendUvarint wrote, refusing one above
// limit and an overlong encoding, so every value has one encoding.
func (r *Reader) Uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 || n > 1 && r.p[n-1] == 0 || v > limit {
		r.Fail("bad varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// Flag reads a byte that may only be 0 or 1.
func (r *Reader) Flag(what string) bool {
	v := r.U8()
	if v > 1 {
		r.Fail("%s %d", what, v)
	}
	return v == 1
}

// Count reads an element count and refuses one whose elements, at
// least min bytes each, cannot fit in the bytes left — before the
// caller allocates anything sized by it.
func (r *Reader) Count(min int) int {
	n := r.U32()
	if uint64(n)*uint64(min) > uint64(len(r.p)) {
		r.Fail("count %d exceeds the %d bytes left", n, len(r.p))
		return 0
	}
	return int(n)
}

func (r *Reader) Name() string { return string(r.take(r.Count(1))) }

func (r *Reader) Digest() (d Digest) {
	copy(d[:], r.take(digestLen))
	return d
}

// Chunk reads a len(4) bytes[len] field, as AppendChunk writes a state
// and AppendName a name; the bytes alias the body.
func (r *Reader) Chunk() []byte { return r.take(r.Count(1)) }

// List reads a count and that many elements, each at least min bytes,
// stopping at the first failure.
func List[T any](r *Reader, min int, elem func() T) []T {
	out := make([]T, r.Count(min))
	for i := 0; i < len(out) && r.err == nil; i++ {
		out[i] = elem()
	}
	return out
}

// End reports the first failure, or bytes left over after the body.
func (r *Reader) End() error {
	if r.err == nil && len(r.p) != 0 {
		r.Fail("%d trailing bytes after body", len(r.p))
	}
	return r.err
}

// Ascending reads the next name of a sorted sequence and refuses one
// that does not sort after prev: a state has one encoding, so the
// bytes that passed the digest check are the bytes it re-encodes to.
func (r *Reader) Ascending(i int, prev string) string {
	name := r.Name()
	if i > 0 && name <= prev {
		r.Fail("name %q out of order", name)
	}
	return name
}

// vals reads a section of named values, appending the values to vals.
func (r *Reader) vals(vals []uint64) ([]string, []uint64) {
	names := make([]string, r.Count(4+8))
	for i := 0; i < len(names) && r.err == nil; i++ {
		names[i] = r.Ascending(i, names[max(i-1, 0)])
		vals = append(vals, r.U64())
	}
	return names, vals
}

// DecodeChunk parses one chunk's state bytes and checks them against
// the content address they travelled under. Every state that arrives
// as bytes — from disk, the remote wire or a dist node — passes
// through here before it is stored, cached or applied. The state's
// layout is built from the names it carries.
func DecodeChunk(state []byte, want Digest) (*sim.HWState, error) {
	r := Reader{p: state}
	l := &sim.Layout{}
	var vals []uint64
	l.Regs, vals = r.vals(vals)
	l.Mems = make([]string, r.Count(4+4))
	l.Depths = make([]int, len(l.Mems))
	for i := 0; i < len(l.Mems) && r.err == nil; i++ {
		l.Mems[i] = r.Ascending(i, l.Mems[max(i-1, 0)])
		l.Depths[i] = r.Count(8)
		for range l.Depths[i] {
			vals = append(vals, r.U64()) // cannot fail: count vetted the total
		}
	}
	l.Inputs, vals = r.vals(vals)
	if err := r.End(); err != nil {
		return nil, err
	}
	if got := Digest(sha256.Sum256(state)); got != want {
		return nil, fmt.Errorf("snapshot: chunk digest mismatch (%x != %x)", got[:8], want[:8])
	}
	return sim.NewHWState(l, vals), nil
}

// Record framing: magic(4) version(1) length(4) crc32(4) payload.
// Persisted and fetched records feed restores, so truncation and
// corruption must be detected before any bit reaches the hardware.
// Versions 1 and 2 were the gob record and gob delta payloads.
const (
	recMagic   = 0x48535352 // "HSSR"
	recVersion = 3
	recHdrLen  = 4 + 1 + 4 + 4
)

// appendPayload appends rec's payload. With periphs nil every chunk is
// inline and hashed as it is written (Encode). Otherwise periphs[i] is
// the HWDigest of rec.HW[i] and every chunk is omitted: the preimage
// of the record's content address. rec.HW is walked in its own order,
// which target.State keeps ascending by name.
func appendPayload(b []byte, rec *Record, periphs []Digest) []byte {
	b = AppendU32(b, len(rec.IRQEdges))
	for _, e := range rec.IRQEdges {
		if e {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = AppendU32(b, len(rec.HW))
	for i := range rec.HW {
		e := &rec.HW[i]
		b = AppendName(b, e.Name)
		if periphs != nil {
			b = append(append(b, periphs[i][:]...), 0)
			continue
		}
		at := len(b)
		b = append(b, make([]byte, digestLen+1)...)
		b = AppendChunk(b, &e.HW)
		d := Digest(sha256.Sum256(b[at+digestLen+1+4:]))
		copy(b[at:], d[:])
		b[at+digestLen] = 1
	}
	return b
}

// recordDigest is the content address of rec, whose peripherals'
// HWDigests are periphs.
func recordDigest(rec *Record, periphs []Digest) Digest {
	var stack [512]byte
	return sha256.Sum256(appendPayload(stack[:0], rec, periphs))
}

// DigestRecord computes the content address of a record: the SHA-256
// of its payload with every chunk omitted, that is of the IRQ edge
// levels and each peripheral's name and HWDigest.
func DigestRecord(rec *Record) Digest { return recordDigest(rec, hwDigests(rec.HW)) }

// hwDigests hashes each of st's peripheral states, in st's order.
func hwDigests(st target.State) []Digest {
	periphs := make([]Digest, len(st))
	for i := range st {
		periphs[i] = HWDigest(&st[i].HW)
	}
	return periphs
}

// Encode serializes a record, every chunk inline. A state out of name
// order, or naming a peripheral twice, has no byte form: it is refused
// with an integrity error, so no non-canonical record is ever written.
func Encode(rec *Record) ([]byte, error) {
	if err := rec.HW.CheckOrder(); err != nil {
		return nil, &target.Error{Class: target.Integrity, Op: "snapshot: encode", Err: err}
	}
	b := appendPayload(make([]byte, recHdrLen, 1024), rec, nil)
	p := b[recHdrLen:]
	binary.LittleEndian.PutUint32(b[0:4], recMagic)
	b[4] = recVersion
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(p)))
	binary.LittleEndian.PutUint32(b[9:13], crc32.ChecksumIEEE(p))
	return b, nil
}

func integrityErr(format string, args ...any) error {
	return &target.Error{Class: target.Integrity, Op: "snapshot: decode",
		Err: fmt.Errorf(format, args...)}
}

// Decode validates and deserializes a record. Truncated or corrupted
// data, and a record with a chunk omitted (inline flag 0), is rejected
// with a typed integrity error rather than decoded into a wrong
// hardware state. Every chunk is digest-verified before use.
func Decode(data []byte) (*Record, error) {
	if len(data) < recHdrLen {
		return nil, integrityErr("truncated header: %d bytes", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data[0:4]); magic != recMagic {
		return nil, integrityErr("bad magic %#x", magic)
	}
	if data[4] != recVersion {
		return nil, integrityErr("unsupported version %d", data[4])
	}
	payload := data[recHdrLen:]
	if n := binary.LittleEndian.Uint32(data[5:9]); uint64(n) != uint64(len(payload)) {
		return nil, integrityErr("length mismatch: header says %d bytes, got %d", n, len(payload))
	}
	if sum, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[9:13]); sum != want {
		return nil, integrityErr("checksum mismatch (%#x != %#x)", sum, want)
	}
	r := Reader{p: payload}
	rec := &Record{IRQEdges: List(&r, 1, func() bool { return r.Flag("irq edge level") })}
	n := r.Count(4 + digestLen + 1)
	rec.HW = make(target.State, 0, n)
	name := ""
	for i := 0; i < n; i++ {
		name = r.Ascending(i, name)
		d := r.Digest()
		if !r.Flag("inline flag") && r.err == nil {
			return nil, integrityErr("peripheral %q: chunk omitted", name)
		}
		state := r.Chunk()
		if r.err != nil {
			break
		}
		hw, err := DecodeChunk(state, d)
		if err != nil {
			return nil, integrityErr("peripheral %q: %v", name, err)
		}
		rec.HW = append(rec.HW, target.PeriphState{Name: name, HW: *hw})
	}
	if err := r.End(); err != nil {
		return nil, integrityErr("%v", err)
	}
	return rec, nil
}
