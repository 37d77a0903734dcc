package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"hardsnap/internal/snapshot"
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
	helloPayload, err := gobEncode(helloReq{Magic: helloMagic})
	if err != nil {
		f.Fatal(err)
	}
	hello := frame(kHello, 0, helloPayload)
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
