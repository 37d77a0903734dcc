package remote

import (
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
)

// The fixed binary bodies of the snapshot frames (kSave, kFetch,
// kRestore, kPush); the package comment in wire.go has the layouts.
// The chunk bytes inside them, the append helpers and the
// bounds-checked cursor are internal/snapshot's.

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
