package snapshot

// The one record decoder: round-trip properties over full records and
// deltas, refusal of everything that is not the canonical encoding,
// and a native fuzz target.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
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

// TestRecordRoundTripProperty: Decode(Encode(r)) is r, and for any
// subset of chunks the sender omits and any subset of those the
// receiver still resolves, DecodeDelta either rebuilds r or lists
// exactly the unresolvable digests, in name order.
func TestRecordRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		rec := genRecord(rnd)
		want := DigestRecord(&rec)

		data, err := Encode(&rec)
		if err != nil {
			t.Logf("seed %d: encode: %v", seed, err)
			return false
		}
		back, err := Decode(data)
		if err != nil || DigestRecord(back) != want || !reflect.DeepEqual(back.HW, rec.HW) {
			t.Logf("seed %d: full round trip: %v", seed, err)
			return false
		}

		omit := make(map[Digest]bool)
		held := make(map[Digest]*sim.HWState)
		names := SortedNames(rec.HW)
		for _, name := range names {
			d := HWDigest(rec.HW[name])
			switch rnd.Intn(3) {
			case 0:
				omit[d] = true
			case 1:
				omit[d], held[d] = true, rec.HW[name]
			}
		}
		var wantMissing []Digest
		for _, name := range names {
			if d := HWDigest(rec.HW[name]); omit[d] && held[d] == nil {
				wantMissing = append(wantMissing, d)
			}
		}
		delta := EncodeDelta(&rec, func(d Digest) bool { return omit[d] })
		got, missing, err := DecodeDelta(delta, func(d Digest) (*sim.HWState, bool) {
			hw, ok := held[d]
			return hw, ok
		})
		if err != nil || !reflect.DeepEqual(missing, wantMissing) {
			t.Logf("seed %d: delta: %v, missing %x, want %x", seed, err, missing, wantMissing)
			return false
		}
		if len(wantMissing) > 0 {
			return got == nil
		}
		if len(omit) > 0 {
			// A record with chunks omitted is not self-contained.
			if _, err := Decode(delta); target.Classify(err) != target.Integrity {
				t.Logf("seed %d: Decode of a delta: %v", seed, err)
				return false
			}
		}
		return got != nil && DigestRecord(got) == want
	}
	if err := quick.Check(prop, testseed.Quick(t, 300)); err != nil {
		t.Fatal(err)
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
		if rec, _, err := DecodeDelta(frame, nil); rec != nil || target.Classify(err) != target.Integrity {
			t.Fatalf("version %d: DecodeDelta = %v, %v; want an integrity error", version, rec, err)
		}
	}
}

// TestDecodeRejectsNonCanonical: a payload that parses but is not what
// the encoder writes — names out of order or repeated, a level or flag
// other than 0 and 1, a chunk under the wrong digest, trailing bytes —
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
	held := make(map[Digest]*sim.HWState)
	for i := 0; i < 4; i++ {
		rec := genRecord(rnd)
		full, err := Encode(&rec)
		if err != nil {
			f.Fatal(err)
		}
		// The delta omits every other chunk; the resolver below holds
		// the chunks of every other seed record.
		n := 0
		delta := EncodeDelta(&rec, func(Digest) bool { n++; return n%2 == 0 })
		if i%2 == 0 {
			for _, hw := range rec.HW {
				held[HWDigest(hw)] = hw
			}
		}
		for _, data := range [][]byte{full, delta} {
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

	resolve := func(d Digest) (*sim.HWState, bool) {
		hw, ok := held[d]
		return hw, ok
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = seal(recVersion, data)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec, err := Decode(data)
		drec, missing, derr := DecodeDelta(data, resolve)
		runtime.ReadMemStats(&m1)
		if got, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(2*(64*len(data)+4096)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), got, bound)
		}
		for _, err := range []error{err, derr} {
			if err != nil && target.Classify(err) != target.Integrity {
				t.Fatalf("untyped error %v (%T)", err, err)
			}
		}
		if (rec == nil) == (err == nil) || (drec != nil) != (derr == nil && missing == nil) {
			t.Fatalf("Decode = %v, %v; DecodeDelta = %v, %x, %v", rec, err, drec, missing, derr)
		}
		if rec != nil {
			if again, _ := Encode(rec); !bytes.Equal(again, data) {
				t.Fatalf("accepted a non-canonical encoding:\n got %x\nfrom %x", again, data)
			}
			if drec == nil || DigestRecord(drec) != DigestRecord(rec) {
				t.Fatalf("DecodeDelta disagrees with Decode on a self-contained record: %v, %v", drec, derr)
			}
		}
		if drec != nil {
			for name, hw := range drec.HW {
				if hw == nil {
					t.Fatalf("peripheral %q decoded to nil", name)
				}
			}
		}
	})
}
