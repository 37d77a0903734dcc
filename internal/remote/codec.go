package remote

import (
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

// The fixed binary bodies of every frame but kBatch: the snapshot
// frames (kSave, kFetch, kRestore, kPush) and the session frames
// (kHello, kAttach, kSpawn, kStats, kViolations); the package comment
// in wire.go has the layouts. What the server writes and reads is
// here, what only the client does is in targetclient.go. The chunk
// bytes inside them, the append helpers and the bounds-checked cursor
// are internal/snapshot's.

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

func appendRefs(b []byte, refs []chunkRef) []byte {
	b = snapshot.AppendU32(b, len(refs))
	for _, r := range refs {
		b = append(snapshot.AppendName(b, r.Name), r.Digest[:]...)
	}
	return b
}

func appendDigests(b []byte, ds []snapshot.Digest) []byte {
	b = snapshot.AppendU32(b, len(ds))
	for i := range ds {
		b = append(b, ds[i][:]...)
	}
	return b
}

// appendChunk adds one digest-addressed chunk and reports its state
// bytes (what the wire statistics count).
func appendChunk(b []byte, d snapshot.Digest, hw *sim.HWState) ([]byte, int) {
	at := len(b) + digestLen + 4
	b = snapshot.AppendChunk(append(b, d[:]...), hw)
	return b, len(b) - at
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

func readRefs(r *snapshot.Reader) []chunkRef {
	return snapshot.List(r, 4+digestLen, func() chunkRef { return chunkRef{Name: r.Name(), Digest: r.Digest()} })
}

func readDigests(r *snapshot.Reader) []snapshot.Digest {
	return snapshot.List(r, digestLen, r.Digest)
}

func readChunks(r *snapshot.Reader) []wireChunk {
	return snapshot.List(r, digestLen+4, func() wireChunk { return wireChunk{Digest: r.Digest(), Data: r.Chunk()} })
}

func decodeFetchReq(p []byte) ([]snapshot.Digest, error) {
	r := snapshot.NewReader(p)
	ds := readDigests(r)
	return ds, r.End()
}

// decodeRestoreReq reads a kRestore request, or a kPush one (which
// also uploads chunks).
func decodeRestoreReq(p []byte, push bool) (mode byte, refs []chunkRef, chunks []wireChunk, err error) {
	r := snapshot.NewReader(p)
	mode, refs = r.U8(), readRefs(r)
	if push {
		chunks = readChunks(r)
	}
	return mode, refs, chunks, r.End()
}

// decodeHello reads a kHello or kAttach body, refusing any magic but
// this protocol's.
func decodeHello(p []byte) (token uint32, err error) {
	r := snapshot.NewReader(p)
	if magic := r.U32(); magic != helloMagic {
		r.Fail("hello magic %#x", magic)
	}
	return r.U32(), r.End()
}

// helloInfo describes the session's target: the answer to kHello,
// kAttach and kSpawn.
type helloInfo struct {
	Token       uint32
	Kind        string
	Name        string
	StateBits   uint
	Periphs     []string
	LastApplied uint32
	// IRQMask has bit i set iff peripheral i can ever drive its
	// interrupt line. Clients answer IRQ polls for cleared bits
	// locally (the line is statically constant-low), with no wire
	// traffic.
	IRQMask uint64
	// HasAssertions reports whether the target carries hardware
	// assertions; without them it can never produce violations, so
	// clients answer TakeViolations locally.
	HasAssertions bool
}

func appendHelloInfo(b []byte, h helloInfo) []byte {
	b = snapshot.AppendName(snapshot.AppendName(snapshot.AppendU32(b, int(h.Token)), h.Kind), h.Name)
	b = snapshot.AppendU32(snapshot.AppendU64(b, uint64(h.StateBits)), len(h.Periphs))
	for _, name := range h.Periphs {
		b = snapshot.AppendName(b, name)
	}
	b = snapshot.AppendU64(snapshot.AppendU32(b, int(h.LastApplied)), h.IRQMask)
	if h.HasAssertions {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendStats writes a kStats response: the target's seven counters,
// 8 bytes each, in target.Stats field order.
func appendStats(b []byte, st target.Stats) []byte {
	for _, v := range [...]uint64{st.Cycles, st.IOOps, st.Snapshots, st.Restores,
		uint64(st.SnapshotTime), st.SnapshotBytes, st.DeltaRestores} {
		b = snapshot.AppendU64(b, v)
	}
	return b
}

// appendViolations writes a kViolations response: a count, then per
// violation its target, peripheral, assertion name and expression and
// the cycle(8) it was detected at.
func appendViolations(b []byte, vs []target.Violation) []byte {
	b = snapshot.AppendU32(b, len(vs))
	for _, v := range vs {
		b = snapshot.AppendName(snapshot.AppendName(snapshot.AppendName(snapshot.AppendName(b, v.Target), v.Periph), v.Name), v.Expr)
		b = snapshot.AppendU64(b, v.Cycle)
	}
	return b
}
