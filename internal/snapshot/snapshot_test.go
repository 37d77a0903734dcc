package snapshot

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hardsnap/internal/sim"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

func record(val uint64) Record {
	return Record{
		HW: target.State{
			"p0": &sim.HWState{
				Regs:   map[string]uint64{"r": val},
				Mems:   map[string][]uint64{"m": {1, 2, val}},
				Inputs: map[string]uint64{"clk": 0},
			},
		},
		IRQEdges: []bool{true, false},
	}
}

func TestPutGetRelease(t *testing.T) {
	s := NewStore()
	id := s.Put(record(42))
	if id == 0 {
		t.Fatal("id must be nonzero")
	}
	rec, ok := s.Get(id)
	if !ok || rec.HW["p0"].Regs["r"] != 42 {
		t.Fatalf("get: %v %v", rec, ok)
	}
	if s.live.Load() != 1 {
		t.Fatalf("live %d", s.live.Load())
	}
	s.Release(id)
	if s.live.Load() != 0 {
		t.Fatal("release failed")
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("released snapshot still readable")
	}
	s.Release(id) // idempotent
}

func TestZeroIDFastPaths(t *testing.T) {
	s := NewStore()
	// HWSnapshot == 0 is the engine's "no snapshot" sentinel: the
	// zero ID must never resolve, never error, never touch stats.
	if rec, ok := s.Get(0); ok || rec != nil {
		t.Fatalf("Get(0) = %v, %v; want nil, false", rec, ok)
	}
	s.Release(0) // must be a no-op, not a panic or a miscount
	if err := s.Update(0, record(1)); err == nil {
		t.Fatal("Update(0) must be an explicit error")
	}
	if _, ok := s.DigestOf(0); ok {
		t.Fatal("DigestOf(0) must miss")
	}
	st := s.Stats()
	if st.Gets != 0 || st.Releases != 0 || st.Puts != 0 {
		t.Fatalf("zero-id ops must not move stats: %+v", st)
	}
}

func TestUpdate(t *testing.T) {
	s := NewStore()
	id := s.Put(record(1))
	if err := s.Update(id, record(2)); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Get(id)
	if rec.HW["p0"].Regs["r"] != 2 {
		t.Fatal("update not visible")
	}
	if err := s.Update(999, record(3)); err == nil {
		t.Fatal("update of unknown id must fail")
	}
}

func TestUpdateSameContentIsDedup(t *testing.T) {
	s := NewStore()
	id := s.Put(record(7))
	if err := s.Update(id, record(7)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DedupHits == 0 {
		t.Fatal("identical update must count as a dedup hit")
	}
	if len(s.entries) != 1 {
		t.Fatalf("entries %d, want 1", len(s.entries))
	}
}

func TestPutIsolatesCallerMemory(t *testing.T) {
	s := NewStore()
	rec := record(5)
	id := s.Put(rec)
	// Mutating the caller's record must not affect the stored copy.
	rec.HW["p0"].Regs["r"] = 99
	rec.HW["p0"].Mems["m"][0] = 77
	rec.IRQEdges[0] = false
	got, _ := s.Get(id)
	if got.HW["p0"].Regs["r"] != 5 || got.HW["p0"].Mems["m"][0] != 1 || !got.IRQEdges[0] {
		t.Fatal("store aliases caller memory")
	}
}

func TestDedupSharesOneEntry(t *testing.T) {
	s := NewStore()
	a := s.Put(record(5))
	b := s.Put(record(5))
	if a == b {
		t.Fatal("ids must stay unique")
	}
	if s.live.Load() != 2 || len(s.entries) != 1 {
		t.Fatalf("live %d entries %d, want 2/1", s.live.Load(), len(s.entries))
	}
	ra, _ := s.Get(a)
	rb, _ := s.Get(b)
	if ra != rb {
		t.Fatal("identical content must share one canonical record")
	}
	if s.Stats().DedupHits == 0 {
		t.Fatal("dedup hit not counted")
	}
	// The entry must survive until the LAST reference goes.
	s.Release(a)
	if _, ok := s.Get(b); !ok {
		t.Fatal("entry died with refs outstanding")
	}
	s.Release(b)
	if len(s.entries) != 0 {
		t.Fatal("entry leaked after last release")
	}
}

func TestPeripheralSharing(t *testing.T) {
	// Two records that differ in one peripheral must share the
	// unchanged peripheral's state structurally.
	mk := func(v uint64) Record {
		return Record{HW: target.State{
			"same": &sim.HWState{Regs: map[string]uint64{"r": 1}},
			"diff": &sim.HWState{Regs: map[string]uint64{"r": v}},
		}}
	}
	s := NewStore()
	a := s.Put(mk(1))
	b := s.Put(mk(2))
	ra, _ := s.Get(a)
	rb, _ := s.Get(b)
	if ra.HW["same"] != rb.HW["same"] {
		t.Fatal("unchanged peripheral state not shared")
	}
	if ra.HW["diff"] == rb.HW["diff"] {
		t.Fatal("changed peripheral state wrongly shared")
	}
	st := s.Stats()
	if st.PeriphShared == 0 {
		t.Fatalf("peripheral sharing not counted: %+v", st)
	}
}

func TestAdopt(t *testing.T) {
	s := NewStore()
	id := s.Put(record(3))
	d, ok := s.DigestOf(id)
	if !ok {
		t.Fatal("digest missing")
	}
	child, ok := s.Adopt(d)
	if !ok || child == id {
		t.Fatalf("adopt: %v %v", child, ok)
	}
	s.Release(id)
	rec, ok := s.Get(child)
	if !ok || rec.HW["p0"].Regs["r"] != 3 {
		t.Fatal("adopted reference lost content")
	}
	if _, ok := s.Adopt(Digest{}); ok {
		t.Fatal("adopt of unknown digest must fail")
	}
}

func TestUniqueIDs(t *testing.T) {
	s := NewStore()
	seen := map[ID]bool{}
	for i := 0; i < 100; i++ {
		id := s.Put(record(uint64(i)))
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
	if peak := s.Stats().PeakLive; peak != 100 {
		t.Fatalf("peak %d", peak)
	}
}

// genRecord builds a pseudo-random record from quick's raw values.
func genRecord(rnd *rand.Rand) Record {
	hw := target.State{}
	for p := 0; p < 1+rnd.Intn(3); p++ {
		name := string(rune('a' + p))
		st := &sim.HWState{
			Regs:   map[string]uint64{},
			Mems:   map[string][]uint64{},
			Inputs: map[string]uint64{},
		}
		for r := 0; r < rnd.Intn(4); r++ {
			st.Regs[string(rune('r'+r))] = rnd.Uint64()
		}
		for m := 0; m < rnd.Intn(2); m++ {
			words := make([]uint64, 1+rnd.Intn(4))
			for i := range words {
				words[i] = rnd.Uint64()
			}
			st.Mems[string(rune('m'+m))] = words
		}
		for i := 0; i < rnd.Intn(2); i++ {
			st.Inputs[string(rune('i'+i))] = rnd.Uint64()
		}
		hw[name] = st
	}
	edges := make([]bool, rnd.Intn(4))
	for i := range edges {
		edges[i] = rnd.Intn(2) == 1
	}
	return Record{HW: hw, IRQEdges: edges}
}

// Property: the digest is deterministic — recomputing it over a deep
// copy (different map iteration order, different allocations) always
// matches, and an Encode/Decode round trip preserves it.
func TestQuickDigestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rec := genRecord(rand.New(rand.NewSource(seed)))
		d1 := DigestRecord(&rec)
		cp := Record{HW: rec.HW.Clone(), IRQEdges: append([]bool(nil), rec.IRQEdges...)}
		if DigestRecord(&cp) != d1 {
			return false
		}
		data, err := Encode(&rec)
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		return DigestRecord(back) == d1
	}
	if err := quick.Check(f, testseed.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// Property (dedup soundness): two records with equal digests stored
// through the store resolve to deep-equal content — adopting a digest
// can never hand back a different hardware state.
func TestQuickDedupSoundness(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := genRecord(rand.New(rand.NewSource(seedA)))
		b := genRecord(rand.New(rand.NewSource(seedB)))
		s := NewStore()
		ia, ib := s.Put(a), s.Put(b)
		da, _ := s.DigestOf(ia)
		db, _ := s.DigestOf(ib)
		ra, _ := s.Get(ia)
		rb, _ := s.Get(ib)
		if da == db {
			// Equal digests must mean bit-identical restored state.
			return reflect.DeepEqual(ra, rb)
		}
		// Distinct digests must mean distinct content.
		return !reflect.DeepEqual(ra, rb)
	}
	cfg := testseed.Quick(t, 200)
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// And explicitly: the same seed twice MUST dedup.
	s := NewStore()
	rec := genRecord(rand.New(rand.NewSource(7)))
	ia := s.Put(rec)
	ib := s.Put(Record{HW: rec.HW.Clone(), IRQEdges: append([]bool(nil), rec.IRQEdges...)})
	ra, _ := s.Get(ia)
	rb, _ := s.Get(ib)
	if ra != rb {
		t.Fatal("equal content did not dedup to one entry")
	}
}

func TestEncodeDecode(t *testing.T) {
	rec := record(123)
	data, err := Encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.HW["p0"].Regs["r"] != 123 || back.HW["p0"].Mems["m"][2] != 123 {
		t.Fatalf("round trip: %+v", back.HW["p0"])
	}
	if len(back.IRQEdges) != 2 || !back.IRQEdges[0] {
		t.Fatalf("irq edges: %v", back.IRQEdges)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// TestDecodeRejectsMutatedFrames flips a byte in every header class
// of the frame — magic, version, length, CRC and payload — and
// asserts each mutation yields a typed integrity error, never a
// decoded record.
func TestDecodeRejectsMutatedFrames(t *testing.T) {
	rec := record(7)
	data, err := Encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		off  int
	}{
		{"magic[0]", 0},
		{"magic[1]", 1},
		{"magic[2]", 2},
		{"magic[3]", 3},
		{"version", 4},
		{"length[0]", 5},
		{"length[1]", 6},
		{"length[2]", 7},
		{"length[3]", 8},
		{"crc[0]", 9},
		{"crc[1]", 10},
		{"crc[2]", 11},
		{"crc[3]", 12},
		{"payload[first]", recHdrLen},
		{"payload[mid]", recHdrLen + (len(data)-recHdrLen)/2},
		{"payload[last]", len(data) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			flip := append([]byte(nil), data...)
			flip[tc.off] ^= 0x10
			rec, err := Decode(flip)
			if rec != nil {
				t.Fatalf("mutated frame decoded: %+v", rec)
			}
			if target.Classify(err) != target.Integrity {
				t.Fatalf("flip at %d (%s): %v, want typed integrity error", tc.off, tc.name, err)
			}
		})
	}
	// Every possible payload byte, via quick: any single-bit payload
	// corruption is caught by the CRC.
	f := func(off uint16, bit uint8) bool {
		flip := append([]byte(nil), data...)
		i := recHdrLen + int(off)%(len(data)-recHdrLen)
		flip[i] ^= 1 << (bit % 8)
		_, err := Decode(flip)
		return target.Classify(err) == target.Integrity
	}
	if err := quick.Check(f, testseed.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	rec := record(7)
	data, err := Encode(&rec)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), data...)
	flip[len(flip)-1] ^= 0x04
	if _, err := Decode(flip); target.Classify(err) != target.Integrity {
		t.Fatalf("bit flip: %v, want integrity error", err)
	}

	if _, err := Decode(data[:len(data)-5]); target.Classify(err) != target.Integrity {
		t.Fatalf("truncation: %v, want integrity error", err)
	}

	if _, err := Decode(data[:3]); target.Classify(err) != target.Integrity {
		t.Fatalf("truncated header: %v, want integrity error", err)
	}

	if _, err := Decode(nil); target.Classify(err) != target.Integrity {
		t.Fatalf("empty: %v, want integrity error", err)
	}

	ver := append([]byte(nil), data...)
	ver[4] = 0xEE
	if _, err := Decode(ver); target.Classify(err) != target.Integrity {
		t.Fatalf("bad version: %v, want integrity error", err)
	}
}
