package remote

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
)

// The fixed binary bodies of the snapshot frames (kSave, kFetch,
// kRestore, kPush); the package comment in wire.go has the layouts.

// chunkRef names one peripheral's state by content address.
type chunkRef struct {
	Name   string
	Digest snapshot.Digest
}

// wireChunk is one encoded peripheral state as it sits in a frame;
// Data aliases the frame buffer.
type wireChunk struct {
	Digest snapshot.Digest
	Data   []byte
}

// Restore modes.
const (
	modeRestore = 0
	modeDelta   = 1
	modeAdopt   = 2
)

// restoreResp answers kRestore and kPush.
type restoreResp struct {
	// Missing lists digests the server lacks; the client must push
	// them. Empty when Applied.
	Missing []snapshot.Digest
	// Applied reports the state reached the hardware.
	Applied bool
	// DidDelta reports the incremental dirty-only path served it.
	DidDelta bool
}

const digestLen = len(snapshot.Digest{})

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func appendU32(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendName(b []byte, s string) []byte { return append(appendU32(b, len(s)), s...) }

func appendRefs(b []byte, refs []chunkRef) []byte {
	b = appendU32(b, len(refs))
	for _, r := range refs {
		b = append(appendName(b, r.Name), r.Digest[:]...)
	}
	return b
}

func appendDigests(b []byte, ds []snapshot.Digest) []byte {
	b = appendU32(b, len(ds))
	for i := range ds {
		b = append(b, ds[i][:]...)
	}
	return b
}

func appendVals(b []byte, m map[string]uint64) []byte {
	b = appendU32(b, len(m))
	for _, name := range sortedNames(m) {
		b = binary.LittleEndian.AppendUint64(appendName(b, name), m[name])
	}
	return b
}

// appendChunk adds one digest-addressed chunk — a nil state as the
// empty one, which is also what it hashes as — and reports its state
// bytes (what the wire statistics count).
func appendChunk(b []byte, d snapshot.Digest, hw *sim.HWState) ([]byte, int) {
	if hw == nil {
		hw = &sim.HWState{}
	}
	at := len(b) + digestLen
	b = appendVals(append(append(b, d[:]...), 0, 0, 0, 0), hw.Regs)
	b = appendU32(b, len(hw.Mems))
	for _, name := range sortedNames(hw.Mems) {
		words := hw.Mems[name]
		b = appendU32(appendName(b, name), len(words))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	b = appendVals(b, hw.Inputs)
	n := len(b) - at - 4
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	return b, n
}

func appendRestoreResp(b []byte, resp restoreResp) []byte {
	var flags byte
	if resp.Applied {
		flags |= 1
	}
	if resp.DidDelta {
		flags |= 2
	}
	return appendDigests(append(b, flags), resp.Missing)
}

// wireReader is a bounds-checked cursor over one body. The first
// failure sticks and empties the cursor, so a decoder reads straight
// through and checks once, at end().
type wireReader struct {
	p   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("remote: "+format, args...)
	}
	r.p = nil
}

// take consumes n bytes. Past the end it fails and yields zeros: n is
// then a fixed field width, since count vets every variable length.
func (r *wireReader) take(n int) []byte {
	if n > len(r.p) {
		r.fail("truncated snapshot body (%d bytes wanted, %d left)", n, len(r.p))
		return make([]byte, n)
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *wireReader) u8() byte    { return r.take(1)[0] }
func (r *wireReader) u64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// count reads an element count and refuses one whose elements, at
// least min bytes each, cannot fit in the bytes left — before the
// caller allocates anything sized by it.
func (r *wireReader) count(min int) int {
	n := binary.LittleEndian.Uint32(r.take(4))
	if uint64(n)*uint64(min) > uint64(len(r.p)) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.p))
		return 0
	}
	return int(n)
}

func (r *wireReader) name() string { return string(r.take(r.count(1))) }

func (r *wireReader) digest() (d snapshot.Digest) {
	copy(d[:], r.take(digestLen))
	return d
}

// end reports the first failure, or bytes left over after the body.
func (r *wireReader) end() error {
	if r.err == nil && len(r.p) != 0 {
		r.fail("%d trailing bytes after snapshot body", len(r.p))
	}
	return r.err
}

func (r *wireReader) refs() []chunkRef {
	refs := make([]chunkRef, r.count(4+digestLen))
	for i := 0; i < len(refs) && r.err == nil; i++ {
		refs[i] = chunkRef{Name: r.name(), Digest: r.digest()}
	}
	return refs
}

func (r *wireReader) digests() []snapshot.Digest {
	ds := make([]snapshot.Digest, r.count(digestLen))
	for i := range ds {
		copy(ds[i][:], r.take(digestLen)) // cannot fail: count vetted the total
	}
	return ds
}

func (r *wireReader) chunks() []wireChunk {
	chunks := make([]wireChunk, r.count(digestLen+4))
	for i := 0; i < len(chunks) && r.err == nil; i++ {
		chunks[i] = wireChunk{Digest: r.digest(), Data: r.take(r.count(1))}
	}
	return chunks
}

func (r *wireReader) vals() map[string]uint64 {
	n := r.count(4 + 8)
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.name()
		m[name] = r.u64()
	}
	return m
}

// decodeChunk decodes one chunk's state bytes and checks the content
// against the address it travelled under; every fetched, inlined and
// pushed chunk passes through here before it is cached or applied.
func decodeChunk(c wireChunk) (*sim.HWState, error) {
	r := wireReader{p: c.Data}
	hw := &sim.HWState{Regs: r.vals()}
	n := r.count(4 + 4)
	hw.Mems = make(map[string][]uint64, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.name()
		words := make([]uint64, r.count(8))
		for j := range words {
			words[j] = binary.LittleEndian.Uint64(r.take(8)) // cannot fail: count vetted the total
		}
		hw.Mems[name] = words
	}
	hw.Inputs = r.vals()
	if err := r.end(); err != nil {
		return nil, err
	}
	if got := snapshot.HWDigest(hw); got != c.Digest {
		return nil, fmt.Errorf("remote: chunk digest mismatch (%x != %x)", got[:8], c.Digest[:8])
	}
	return hw, nil
}

// decodeSaveOffer reads a kSave response: the saved state by digest,
// plus the chunks the server inlined.
func decodeSaveOffer(p []byte) ([]chunkRef, []wireChunk, error) {
	r := wireReader{p: p}
	refs, inline := r.refs(), r.chunks()
	return refs, inline, r.end()
}

func decodeFetchReq(p []byte) ([]snapshot.Digest, error) {
	r := wireReader{p: p}
	ds := r.digests()
	return ds, r.end()
}

func decodeFetchResp(p []byte) ([]wireChunk, error) {
	r := wireReader{p: p}
	chunks := r.chunks()
	return chunks, r.end()
}

// decodeRestoreReq reads a kRestore request, or a kPush one (which
// also uploads chunks).
func decodeRestoreReq(p []byte, push bool) (mode byte, refs []chunkRef, chunks []wireChunk, err error) {
	r := wireReader{p: p}
	mode, refs = r.u8(), r.refs()
	if push {
		chunks = r.chunks()
	}
	return mode, refs, chunks, r.end()
}

func decodeRestoreResp(p []byte) (restoreResp, error) {
	r := wireReader{p: p}
	flags := r.u8()
	resp := restoreResp{Applied: flags&1 != 0, DidDelta: flags&2 != 0, Missing: r.digests()}
	return resp, r.end()
}
