package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
)

// maxReadReader records the largest buffer the server ever asked it to
// fill. readFrame reads a payload with one io.ReadFull into the slice
// it allocated for it, so this is the largest payload allocation.
type maxReadReader struct {
	r   io.Reader
	max int
}

func (m *maxReadReader) Read(p []byte) (int, error) {
	if len(p) > m.max {
		m.max = len(p)
	}
	return m.r.Read(p)
}

// FuzzServeConn feeds arbitrary bytes to the server's frame decoder.
// Whatever arrives, ServeConn must return (the input is finite, so a
// hang is a decoder bug), must not panic, must never size a payload
// buffer from a length field beyond v3MaxPayload, and must report
// failures as the header sentinel or a "remote: "-prefixed error.
func FuzzServeConn(f *testing.F) {
	frame := func(kind byte, seq uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, seq, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hello := frame(kHello, 0, appendHello(nil, 0))
	batch := frame(kBatch, 1, appendBatch(nil, []batchOp{
		{op: bWrite, offset: 0, value: 0xBEEF},
		{op: bAdvance, value: 3},
		{op: bRead, offset: 0},
	}))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flip := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i] ^= 0x20
		return out
	}
	oversized := make([]byte, v3HdrLen)
	oversized[0] = kBatch
	binary.LittleEndian.PutUint32(oversized[5:9], v3MaxPayload+1)
	oversized[9] = crc8(oversized[:9])

	f.Add(hello)
	f.Add(cat(hello, batch))
	f.Add(hello[:4])                                  // truncated header
	f.Add(cat(hello, batch[:v3HdrLen+3]))             // truncated payload
	f.Add(flip(hello, 2))                             // bad header CRC before hello
	f.Add(cat(hello, flip(batch, 9)))                 // bad header CRC after hello
	f.Add(cat(hello, flip(batch, v3HdrLen+2), batch)) // bad payload CRC, then its retransmission
	f.Add(cat(hello, oversized))                      // length field > v3MaxPayload
	f.Add(frame(0x1E, 1, nil))                        // unknown kind before hello
	f.Add(cat(hello, frame(0x1E, 1, nil)))            // unknown kind after hello
	f.Add(frame(kHello, 0, []byte("not a hello")))    // hello that does not decode
	f.Add([]byte{})

	// Snapshot frames: valid, truncated and count-corrupted bodies.
	hw := hwState(map[string]uint64{"out": 0x5A}, nil, nil)
	refs := []chunkRef{{Name: "gpio0", Digest: snapshot.HWDigest(hw)}}
	restoreBody := appendRefs([]byte{modeRestore}, refs)
	pushBody, _ := appendChunk(snapshot.AppendU32(append([]byte(nil), restoreBody...), 1), refs[0].Digest, hw)
	save := frame(kSave, 1, nil)
	for _, c := range []struct {
		kind  byte
		body  []byte
		count int // offset of the body's first count field
	}{
		{kFetch, appendDigests(nil, []snapshot.Digest{refs[0].Digest}), 0},
		{kRestore, restoreBody, 1},
		{kPush, pushBody, 1},
	} {
		huge := append([]byte(nil), c.body...)
		binary.LittleEndian.PutUint32(huge[c.count:], 0xFFFFFFFF)
		f.Add(cat(hello, save, frame(c.kind, 2, c.body)))
		f.Add(cat(hello, save, frame(c.kind, 2, c.body[:len(c.body)/2])))
		f.Add(cat(hello, save, frame(c.kind, 2, huge)))
	}

	tg := newV3Target(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		r := &maxReadReader{r: bytes.NewReader(in)}
		err := NewServer(tg).ServeConn(struct {
			io.Reader
			io.Writer
		}{r, io.Discard})
		if r.max > v3MaxPayload+v3TrailerLen {
			t.Fatalf("decoder asked for a %d-byte read, beyond the %d-byte payload bound", r.max, v3MaxPayload)
		}
		if err != nil && !errors.Is(err, errHdrCRC) && !strings.HasPrefix(err.Error(), "remote: ") {
			t.Fatalf("untyped error from ServeConn: %v (%T)", err, err)
		}
	})
}

// FuzzClientBodies feeds arbitrary bytes to the client's decoders of
// the session bodies a server answers with: hello info (kHello, kAttach,
// kSpawn), stats and violations. Each must refuse the bytes or accept
// exactly one encoding of a value — what it accepts encodes back to the
// same bytes — without panicking, and no count may size an allocation
// beyond the bytes behind it.
func FuzzClientBodies(f *testing.F) {
	info := appendHelloInfo(nil, helloInfo{Token: 3, Kind: "sim", Name: "dev0", StateBits: 96,
		Periphs: []string{"gpio0", "uart0"}, LastApplied: 7, IRQMask: 2, HasAssertions: true})
	stats := appendStats(nil, target.Stats{Cycles: 1 << 40, IOOps: 9, Snapshots: 2, Restores: 3,
		SnapshotTime: 5000, SnapshotBytes: 512, DeltaRestores: 1})
	viol := appendViolations(nil, []target.Violation{{Target: "dev0", Periph: "gpio0", Name: "no_bad",
		Expr: "out != 32'hBAD", Cycle: 41}})
	for which, body := range [][]byte{info, stats, viol} {
		f.Add(byte(which), body)
		f.Add(byte(which), body[:len(body)/2])
		f.Add(byte(which), append(append([]byte(nil), body...), 0))
	}
	f.Add(byte(2), appendViolations(nil, nil))
	f.Add(byte(2), snapshot.AppendU32(nil, 0xFFFFFFFF))
	f.Add(byte(0), append(info[:len(info)-1:len(info)-1], 2)) // assertions flag 2
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		var again []byte
		switch which % 3 {
		case 0:
			h, err := decodeHelloInfo(body)
			if err != nil {
				return
			}
			again = appendHelloInfo(nil, h)
		case 1:
			st, err := decodeStats(body)
			if err != nil {
				return
			}
			again = appendStats(nil, st)
		case 2:
			vs, err := decodeViolations(body)
			if err != nil {
				return
			}
			again = appendViolations(nil, vs)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("body %d accepted as %x, re-encodes to %x", which%3, body, again)
		}
	})
}
