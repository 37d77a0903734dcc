package remote

// The fixed binary snapshot bodies: round-trip and canonical-encoding
// properties, hostile input against every decoder, and the wire-level
// consequences (one frame per save of new content, kFetch only on a
// client-side miss, integrity errors typed).

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

// randHW draws one peripheral state: empty sections, zero-length
// and deep memories, empty and long names.
func randHW(r *rand.Rand) *sim.HWState {
	name := func() string {
		if r.Intn(8) == 0 {
			return strings.Repeat("n", r.Intn(70000))
		}
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	vals := func() map[string]uint64 {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return map[string]uint64{}
		}
		m := make(map[string]uint64)
		for i := r.Intn(20); i > 0; i-- {
			m[name()] = r.Uint64()
		}
		return m
	}
	regs, inputs := vals(), vals()
	var mems map[string][]uint64
	if r.Intn(4) > 0 {
		mems = make(map[string][]uint64)
		for i := r.Intn(4); i > 0; i-- {
			var words []uint64
			switch r.Intn(3) {
			case 0:
				words = []uint64{}
			case 1:
				words = make([]uint64, r.Intn(2048))
				for j := range words {
					words[j] = r.Uint64()
				}
			}
			mems[name()] = words
		}
	}
	return hwState(regs, mems, inputs)
}

// hwState builds a peripheral state from name-keyed values, laid out
// as snapshot.DecodeChunk lays out the state it reads.
func hwState(regs map[string]uint64, mems map[string][]uint64, inputs map[string]uint64) *sim.HWState {
	l := &sim.Layout{Regs: snapshot.SortedNames(regs), Mems: snapshot.SortedNames(mems), Inputs: snapshot.SortedNames(inputs)}
	l.Depths = make([]int, len(l.Mems))
	var vals []uint64
	for _, name := range l.Regs {
		vals = append(vals, regs[name])
	}
	for i, name := range l.Mems {
		l.Depths[i] = len(mems[name])
		vals = append(vals, mems[name]...)
	}
	for _, name := range l.Inputs {
		vals = append(vals, inputs[name])
	}
	return sim.NewHWState(l, vals)
}

func encodeChunk(hw *sim.HWState) wireChunk {
	d := snapshot.HWDigest(hw)
	b, n := appendChunk(nil, d, hw)
	return wireChunk{Digest: d, Data: b[len(b)-n:]}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		hw := randHW(rand.New(rand.NewSource(seed)))
		ch := encodeChunk(hw)
		got, err := snapshot.DecodeChunk(ch.Data, ch.Digest)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return reflect.DeepEqual(got, hw) &&
			snapshot.HWDigest(got) == ch.Digest &&
			bytes.Equal(encodeChunk(got).Data, ch.Data)
	}
	if err := quick.Check(prop, testseed.Quick(t, 150)); err != nil {
		t.Fatal(err)
	}
	// A nil state travels as the empty one.
	if got, err := snapshot.DecodeChunk(encodeChunk(nil).Data, snapshot.HWDigest(nil)); err != nil || !reflect.DeepEqual(got, hwState(nil, nil, nil)) {
		t.Fatalf("nil state: %+v, %v", got, err)
	}
}

// TestSnapshotBodiesHostileInput feeds every body decoder its own
// valid encoding truncated at every offset, with 0xFFFFFFFF over every
// offset (which covers each count and length field), and with trailing
// garbage. A decoder must reject what the table says it must, never
// panic, and never allocate more than a small multiple of the payload:
// counts are checked against the bytes left before anything is sized
// by them.
func TestSnapshotBodiesHostileInput(t *testing.T) {
	hwA := hwState(map[string]uint64{"out": 0xAA, "dir": 1}, nil, map[string]uint64{"in": 3})
	hwB := hwState(map[string]uint64{"count": 7}, map[string][]uint64{"fifo": {1, 2, 3}, "": nil}, nil)
	refs := []chunkRef{{Name: "gpio0", Digest: snapshot.HWDigest(hwA)}, {Name: "timer0", Digest: snapshot.HWDigest(hwB)}}
	withChunks := func(b []byte) []byte {
		b = snapshot.AppendU32(b, 2)
		b, _ = appendChunk(b, refs[0].Digest, hwA)
		b, _ = appendChunk(b, refs[1].Digest, hwB)
		return b
	}
	restoreReq := appendRefs([]byte{modeDelta}, refs)
	bodies := []struct {
		name   string
		body   []byte
		counts []int // offsets of count fields that must be rejected when 0xFFFFFFFF
		decode func(p []byte) error
	}{
		{"saveOffer", withChunks(appendRefs(nil, refs)), []int{0, 4}, func(p []byte) error {
			_, _, err := decodeSaveOffer(p)
			return err
		}},
		{"fetchReq", appendDigests(nil, []snapshot.Digest{refs[0].Digest, refs[1].Digest}), []int{0}, func(p []byte) error {
			_, err := decodeFetchReq(p)
			return err
		}},
		{"fetchResp", withChunks(nil), []int{0, 4 + digestLen}, func(p []byte) error {
			_, err := decodeFetchResp(p)
			return err
		}},
		{"restoreReq", restoreReq, []int{1, 5}, func(p []byte) error {
			_, _, _, err := decodeRestoreReq(p, false)
			return err
		}},
		{"pushReq", withChunks(restoreReq), []int{1, 5, len(restoreReq)}, func(p []byte) error {
			_, _, _, err := decodeRestoreReq(p, true)
			return err
		}},
		{"restoreResp", appendRestoreResp(nil, restoreResp{Missing: []snapshot.Digest{refs[1].Digest}}), []int{1}, func(p []byte) error {
			_, err := decodeRestoreResp(p)
			return err
		}},
		{"chunk", encodeChunk(hwB).Data, []int{0, 4}, func(p []byte) error {
			_, err := snapshot.DecodeChunk(p, refs[1].Digest)
			return err
		}},
	}
	for _, tc := range bodies {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, p []byte, mustFail bool) {
				t.Helper()
				var err error
				if got, bound := testseed.Allocated(func() { err = tc.decode(p) }), uint64(64*len(p)+4096); got > bound {
					t.Fatalf("%s: decoder allocated %d bytes for a %d-byte payload (bound %d)", what, got, len(p), bound)
				}
				if mustFail && err == nil {
					t.Fatalf("%s: accepted", what)
				}
				if err != nil && !strings.HasPrefix(err.Error(), "snapshot: ") {
					t.Fatalf("%s: untyped error %v", what, err)
				}
			}
			check("valid body", tc.body, false)
			if err := tc.decode(tc.body); err != nil {
				t.Fatalf("valid body rejected: %v", err)
			}
			for n := 0; n < len(tc.body); n++ {
				check("truncated", tc.body[:n], true)
			}
			mustFail := make(map[int]bool)
			for _, at := range tc.counts {
				mustFail[at] = true
			}
			for at := 0; at+4 <= len(tc.body); at++ {
				p := append([]byte(nil), tc.body...)
				binary.LittleEndian.PutUint32(p[at:], 0xFFFFFFFF)
				check("0xFFFFFFFF", p, mustFail[at])
			}
			check("trailing garbage", append(append([]byte(nil), tc.body...), 0), true)
		})
	}

	// A chunk whose bytes do not hash to the digest it travels under.
	ch := encodeChunk(hwB)
	ch.Data = append([]byte(nil), ch.Data...)
	ch.Data[4+4+len("count")] ^= 1 // a bit of the register's value: still well-formed
	if _, err := snapshot.DecodeChunk(ch.Data, ch.Digest); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("chunk with foreign content: %v, want a digest mismatch", err)
	}
}

// TestV3SaveInlinesNewChunks: a save of content new to the server costs
// one frame — the chunks ride in the kSave response — and kFetch is
// only the fallback for a chunk the client cache lost. ChunksSkipped
// counts exactly the chunks whose bytes did not cross the wire.
func TestV3SaveInlinesNewChunks(t *testing.T) {
	c, srv := v3PipeSrv(t, DefaultChunkCap)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	save := func(what string, frames, skipped uint64, moved bool) target.State {
		t.Helper()
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
		pre := c.WireStats()
		st, err := c.Save()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		post := c.WireStats()
		if got := post.Frames - pre.Frames; got != frames {
			t.Fatalf("%s cost %d frames, want %d", what, got, frames)
		}
		if got := post.ChunksSkipped - pre.ChunksSkipped; got != skipped {
			t.Fatalf("%s skipped %d chunks, want %d", what, got, skipped)
		}
		if got := post.StateBytesReceived != pre.StateBytesReceived; got != moved {
			t.Fatalf("%s moved state bytes: %v, want %v", what, got, moved)
		}
		return st
	}
	if err := gpio.WriteReg(0x00, 0x11); err != nil {
		t.Fatal(err)
	}
	st1 := save("first save", 1, 0, true) // gpio0 and timer0 both inlined
	save("clean re-save", 1, 2, false)
	if err := gpio.WriteReg(0x00, 0x22); err != nil {
		t.Fatal(err)
	}
	save("dirty save", 1, 1, true) // gpio0 inlined, timer0 skipped

	// Back to the first state, then lose all but one of the client's
	// copies: the server still holds every chunk, so nothing is inlined
	// and the evicted one comes back through kFetch.
	if err := c.Restore(st1); err != nil {
		t.Fatal(err)
	}
	c.chunks.setCap(1)
	st := save("save after client eviction", 2, 1, true)
	if snapshot.DigestRecord(&snapshot.Record{HW: st}) != snapshot.DigestRecord(&snapshot.Record{HW: st1}) {
		t.Fatal("save through kFetch returned different content")
	}
	if n := srv.chunks.resident(); n != 3 {
		t.Fatalf("server holds %d chunks, want 3 (timer0, two gpio0 values)", n)
	}
}

// TestClientChunkCacheBounded: the client cache evicts like the
// server's instead of pinning every state a session ever saw.
func TestClientChunkCacheBounded(t *testing.T) {
	c, _ := v3PipeSrv(t, DefaultChunkCap)
	if c.chunks.cap != DefaultChunkCap {
		t.Fatalf("client chunk cap %d, want DefaultChunkCap", c.chunks.cap)
	}
	c.chunks.setCap(4)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	var first snapshot.Digest
	for i := uint32(0); i < 20; i++ {
		if err := gpio.WriteReg(0x00, i); err != nil {
			t.Fatal(err)
		}
		st, err := c.Save()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = snapshot.HWDigest(st.Get("gpio0"))
		}
	}
	if n := c.chunks.resident(); n != 4 {
		t.Fatalf("client cache: %d resident, want 4", n)
	}
	if _, ok := c.chunks.get(first); ok {
		t.Fatal("client cache kept the least recently used chunk")
	}
}

// TestSnapshotChunkIntegrityTyped: a chunk that does not hash to its
// digest is an integrity error on whichever end receives it, and is
// neither cached nor applied.
func TestSnapshotChunkIntegrityTyped(t *testing.T) {
	hw := hwState(map[string]uint64{"out": 1}, nil, nil)
	lie := snapshot.HWDigest(hwState(map[string]uint64{"out": 2}, nil, nil))

	t.Run("pushed", func(t *testing.T) {
		c, srv := v3PipeSrv(t, DefaultChunkCap)
		_, err := c.roundTrip(kPush, func(b []byte) []byte {
			b = snapshot.AppendU32(appendRefs(append(b, modeRestore), []chunkRef{{Name: "gpio0", Digest: lie}}), 1)
			b, _ = appendChunk(b, lie, hw)
			return b
		})
		if target.Classify(err) != target.Integrity {
			t.Fatalf("push of a mislabelled chunk: %v, want integrity class", err)
		}
		if _, ok := srv.chunks.get(lie); ok {
			t.Fatal("server cached a chunk that failed its digest check")
		}
	})
	t.Run("inlined", func(t *testing.T) {
		c := scriptedPeer(t, func(conn net.Conn, seq uint32) {
			body := snapshot.AppendU32(appendRefs(nil, []chunkRef{{Name: "gpio0", Digest: lie}}), 1)
			body, _ = appendChunk(body, lie, hw)
			_ = writeFrame(conn, kResp, seq, respPayload(respMeta{status: vstatusOK}, body))
		})
		if _, err := c.Save(); target.Classify(err) != target.Integrity {
			t.Fatalf("save with a mislabelled inline chunk: %v, want integrity class", err)
		}
		if _, ok := c.chunks.get(lie); ok {
			t.Fatal("client cached a chunk that failed its digest check")
		}
	})
	t.Run("malformed offer", func(t *testing.T) {
		c := scriptedPeer(t, func(conn net.Conn, seq uint32) {
			body := snapshot.AppendU32(nil, 0xFFFFFFFF)
			_ = writeFrame(conn, kResp, seq, respPayload(respMeta{status: vstatusOK}, body))
		})
		if _, err := c.Save(); target.Classify(err) != target.Transient {
			t.Fatalf("save with a malformed offer: %v, want transient class", err)
		}
	})
}

// TestServeConnRefusesOldHello: a peer built before the snapshot
// bodies left gob ("HSR3"), before chunks were addressed by the hash of
// their state bytes ("HS3b"), or before the session bodies left gob
// ("HS3c") announces its magic; it is refused at hello — typed error,
// connection ended, no session, nothing answered — rather than
// mis-decoded at its first kSave or session body.
func TestServeConnRefusesOldHello(t *testing.T) {
	for _, oldMagic := range []int{0x48535233, 0x48533362, 0x48533363} {
		srv := NewServer(newV3Target(t))
		hello := snapshot.AppendU32(snapshot.AppendU32(nil, oldMagic), 0)
		var in, out bytes.Buffer
		if err := writeFrame(&in, kHello, 0, hello); err != nil {
			t.Fatal(err)
		}
		err := srv.ServeConn(struct {
			io.Reader
			io.Writer
		}{&in, &out})
		if err == nil || !strings.Contains(err.Error(), "remote: bad hello frame") {
			t.Fatalf("magic %#x: ServeConn returned %v, want the bad-hello error", oldMagic, err)
		}
		if out.Len() != 0 {
			t.Fatalf("server answered an old-magic hello with %d bytes", out.Len())
		}
		if len(srv.sessions) != 0 {
			t.Fatalf("old-magic hello created %d sessions", len(srv.sessions))
		}
	}
}
