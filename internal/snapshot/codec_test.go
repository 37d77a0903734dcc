package snapshot

// The one record decoder: a round-trip property, refusal of everything
// that is not the canonical encoding, and a native fuzz target.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hardsnap/internal/sim"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

// seal frames payload under a well-formed header (right magic, length
// and CRC) of the given version, so a refusal can only be about the
// version or the payload.
func seal(version byte, payload []byte) []byte {
	b := make([]byte, recHdrLen, recHdrLen+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], recMagic)
	b[4] = version
	binary.LittleEndian.PutUint32(b[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[9:13], crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestRecordRoundTripProperty: Decode(Encode(r)) is r.
func TestRecordRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rec := genRecord(rand.New(rand.NewSource(seed)))
		data, err := Encode(&rec)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		back, err := Decode(data)
		if err != nil || DigestRecord(back) != DigestRecord(&rec) || !reflect.DeepEqual(back.HW, rec.HW) {
			t.Logf("seed %d: round trip: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, testseed.Quick(t, 300)); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRefusesNonCanonicalState: a state out of name order or
// naming a peripheral twice has no byte form, so Encode refuses it with
// an integrity error instead of writing bytes no decoder accepts.
func TestEncodeRefusesNonCanonicalState(t *testing.T) {
	p := target.PeriphState{Name: "p", HW: *hwState(map[string]uint64{"r": 1}, nil, nil)}
	q := target.PeriphState{Name: "q", HW: p.HW}
	if _, err := Encode(&Record{HW: target.State{p, q}}); err != nil {
		t.Fatalf("canonical state refused: %v", err)
	}
	for _, st := range []target.State{{q, p}, {p, p}, {p, q, q}} {
		if data, err := Encode(&Record{HW: st}); data != nil || target.Classify(err) != target.Integrity {
			t.Errorf("Encode of %s/%s...: %d bytes, %v; want an integrity error", st[0].Name, st[1].Name, len(data), err)
		}
	}
}

// TestDecodeRejectsGobVersions: versions 1 (gob record) and 2 (gob
// delta) are refused by version byte alone — the frames here carry a
// valid header and a payload version 3 would accept.
func TestDecodeRejectsGobVersions(t *testing.T) {
	rec := record(7)
	data, err := Encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(seal(recVersion, data[recHdrLen:])); err != nil {
		t.Fatalf("resealed version-%d frame: %v", recVersion, err)
	}
	for _, version := range []byte{1, 2} {
		frame := seal(version, data[recHdrLen:])
		if rec, err := Decode(frame); rec != nil || target.Classify(err) != target.Integrity {
			t.Fatalf("version %d: Decode = %v, %v; want an integrity error", version, rec, err)
		}
	}
}

// TestDecodeRejectsNonCanonical: a payload that parses but is not what
// the encoder writes — names out of order or repeated, a level or flag
// other than 0 and 1, a chunk omitted (inline flag 0, the form only
// DigestRecord hashes), a chunk under the wrong digest, trailing bytes —
// is an integrity error, so the bytes a digest vouches for are the
// only bytes its state has.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	hw := hwState(map[string]uint64{"a": 1, "b": 2}, nil, nil)
	entry := func(b []byte, name string, d Digest, hw *sim.HWState) []byte {
		return AppendChunk(append(append(AppendName(b, name), d[:]...), 1), hw)
	}
	payload := func(edges []byte, build func(b []byte) []byte, n int) []byte {
		return build(AppendU32(append(AppendU32(nil, len(edges)), edges...), n))
	}
	d := HWDigest(hw)
	// "b" before "a" in the register list, under the digest of those bytes.
	swapped := AppendU32(nil, 2)
	swapped = binary.LittleEndian.AppendUint64(AppendName(swapped, "b"), 2)
	swapped = binary.LittleEndian.AppendUint64(AppendName(swapped, "a"), 1)
	swapped = AppendU32(AppendU32(swapped, 0), 0)
	cases := map[string][]byte{
		"edge level 2": payload([]byte{2}, func(b []byte) []byte { return entry(b, "p", d, hw) }, 1),
		"periphs out of order": payload(nil, func(b []byte) []byte {
			return entry(entry(b, "q", d, hw), "p", d, hw)
		}, 2),
		"periph repeated": payload(nil, func(b []byte) []byte {
			return entry(entry(b, "p", d, hw), "p", d, hw)
		}, 2),
		"inline flag 0": payload(nil, func(b []byte) []byte {
			return append(append(AppendName(b, "p"), d[:]...), 0)
		}, 1),
		"inline flag 0, chunk follows": payload(nil, func(b []byte) []byte {
			return AppendChunk(append(append(AppendName(b, "p"), d[:]...), 0), hw)
		}, 1),
		"inline flag 2": payload(nil, func(b []byte) []byte {
			return append(append(AppendName(b, "p"), d[:]...), 2)
		}, 1),
		"wrong digest": payload(nil, func(b []byte) []byte { return entry(b, "p", Digest{1}, hw) }, 1),
		"registers out of order": payload(nil, func(b []byte) []byte {
			sum := Digest(sha256.Sum256(swapped))
			b = append(append(AppendName(b, "p"), sum[:]...), 1)
			return append(AppendU32(b, len(swapped)), swapped...)
		}, 1),
		"trailing byte": append(payload(nil, func(b []byte) []byte { return entry(b, "p", d, hw) }, 1), 0),
	}
	if _, err := Decode(seal(recVersion, payload([]byte{1}, func(b []byte) []byte { return entry(b, "p", d, hw) }, 1))); err != nil {
		t.Fatalf("hand-built canonical payload refused: %v", err)
	}
	for name, p := range cases {
		if rec, err := Decode(seal(recVersion, p)); rec != nil || target.Classify(err) != target.Integrity {
			t.Errorf("%s: Decode = %v, %v; want an integrity error", name, rec, err)
		}
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, both
// as they are and resealed under a valid header (so that mutations
// reach the payload parser instead of dying at the CRC). The decoder
// must not panic, must not allocate beyond a small multiple of its
// input, must fail only with integrity errors, and must accept nothing
// but the canonical encoding: a record it decodes re-encodes to the
// bytes it came from.
func FuzzDecodeRecord(f *testing.F) {
	rnd := rand.New(rand.NewSource(testseed.Seed))
	for i := 0; i < 4; i++ {
		rec := genRecord(rnd)
		full, err := Encode(&rec)
		if err != nil {
			f.Fatal(err)
		}
		// The payload DigestRecord hashes, every chunk omitted: a
		// frame the decoder must refuse.
		addressed := seal(recVersion, appendPayload(nil, &rec, hwDigests(rec.HW)))
		for _, data := range [][]byte{full, addressed} {
			f.Add(data, false)
			f.Add(data[recHdrLen:], true)
			f.Add(data[:len(data)/2], false)
			f.Add(data[recHdrLen:recHdrLen+(len(data)-recHdrLen)/2], true)
			for _, at := range []int{4, recHdrLen, recHdrLen + 4, len(data) - 1} {
				flip := append([]byte(nil), data...)
				flip[at] ^= 0x04
				f.Add(flip, false)
				f.Add(flip[recHdrLen:], true)
			}
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, true) // two counts of 2^32-1

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = seal(recVersion, data)
		}
		var rec *Record
		var err error
		if got, bound := testseed.Allocated(func() { rec, err = Decode(data) }), uint64(64*len(data)+4096); got > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), got, bound)
		}
		if err != nil && target.Classify(err) != target.Integrity {
			t.Fatalf("untyped error %v (%T)", err, err)
		}
		if (rec == nil) == (err == nil) {
			t.Fatalf("Decode = %v, %v", rec, err)
		}
		if rec != nil {
			if again, _ := Encode(rec); !bytes.Equal(again, data) {
				t.Fatalf("accepted a non-canonical encoding:\n got %x\nfrom %x", again, data)
			}
			for _, e := range rec.HW {
				if len(e.HW.Vals()) != e.HW.Layout().Len() {
					t.Fatalf("peripheral %q decoded to %d values for a layout of %d", e.Name, len(e.HW.Vals()), e.HW.Layout().Len())
				}
			}
		}
	})
}

// TestUvarintOneEncoding: Reader.Uvarint reads what
// binary.AppendUvarint writes, up to its limit, and refuses an overlong
// encoding of a value, a value above the limit and a truncated one.
func TestUvarintOneEncoding(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 32, 1<<64 - 1} {
		r := NewReader(binary.AppendUvarint(nil, v))
		if got := r.Uvarint(1<<64 - 1); got != v || r.End() != nil {
			t.Errorf("%d read back as %d: %v", v, got, r.End())
		}
	}
	for _, c := range []struct {
		in    []byte
		limit uint64
	}{
		{[]byte{0x80, 0x00}, 1<<64 - 1},       // 0 in two bytes
		{[]byte{0xff, 0x80, 0x00}, 1<<64 - 1}, // 127 in three
		{binary.AppendUvarint(nil, 1<<32), 1<<32 - 1},
		{[]byte{0x80}, 1<<64 - 1},
		{nil, 1<<64 - 1},
	} {
		r := NewReader(c.in)
		if r.Uvarint(c.limit); r.End() == nil {
			t.Errorf("% x under limit %d accepted", c.in, c.limit)
		}
	}
}
