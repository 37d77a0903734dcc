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

// hwState builds a peripheral state from name-keyed values, laid out
// as DecodeChunk lays out the state it reads.
func hwState(regs map[string]uint64, mems map[string][]uint64, inputs map[string]uint64) *sim.HWState {
	l := &sim.Layout{Regs: SortedNames(regs), Mems: SortedNames(mems), Inputs: SortedNames(inputs)}
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

// at points at word i of the named element of hw (i is 0 for a
// register or input).
func at(hw *sim.HWState, name string, i int) *uint64 {
	return &hw.Vals()[statePos(hw.Layout(), name)+i]
}

// statePos is the vector position of the named register or input of
// layout l, or of word 0 of the named memory.
func statePos(l *sim.Layout, name string) int {
	n := 0
	for _, r := range l.Regs {
		if r == name {
			return n
		}
		n++
	}
	for i, m := range l.Mems {
		if m == name {
			return n
		}
		n += l.Depths[i]
	}
	for _, in := range l.Inputs {
		if in == name {
			return n
		}
		n++
	}
	panic("no state element " + name)
}

// stateOf lays peripheral states keyed by instance name out as a
// target.State, in name order.
func stateOf(m map[string]*sim.HWState) target.State {
	st := make(target.State, 0, len(m))
	for _, name := range SortedNames(m) {
		st = append(st, target.PeriphState{Name: name, HW: *m[name]})
	}
	return st
}

func record(val uint64) Record {
	return Record{
		HW: stateOf(map[string]*sim.HWState{
			"p0": hwState(map[string]uint64{"r": val}, map[string][]uint64{"m": {1, 2, val}}, map[string]uint64{"clk": 0}),
		}),
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
	if !ok || *at(rec.HW.Get("p0"), "r", 0) != 42 {
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
	if _, err := s.Update(0, record(1)); err == nil {
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
	if _, err := s.Update(id, record(2)); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Get(id)
	if *at(rec.HW.Get("p0"), "r", 0) != 2 {
		t.Fatal("update not visible")
	}
	if _, err := s.Update(999, record(3)); err == nil {
		t.Fatal("update of unknown id must fail")
	}
}

func TestUpdateSameContentIsDedup(t *testing.T) {
	s := NewStore()
	id := s.Put(record(7))
	if _, err := s.Update(id, record(7)); err != nil {
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
	*at(rec.HW.Get("p0"), "r", 0) = 99
	*at(rec.HW.Get("p0"), "m", 0) = 77
	rec.IRQEdges[0] = false
	got, _ := s.Get(id)
	if *at(got.HW.Get("p0"), "r", 0) != 5 || *at(got.HW.Get("p0"), "m", 0) != 1 || !got.IRQEdges[0] {
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
		return Record{HW: stateOf(map[string]*sim.HWState{
			"same": hwState(map[string]uint64{"r": 1}, nil, nil),
			"diff": hwState(map[string]uint64{"r": v}, nil, nil),
		})}
	}
	s := NewStore()
	a := s.Put(mk(1))
	b := s.Put(mk(2))
	ra, _ := s.Get(a)
	rb, _ := s.Get(b)
	vec := func(rec *Record, name string) *uint64 { return &rec.HW.Get(name).Vals()[0] }
	if vec(ra, "same") != vec(rb, "same") {
		t.Fatal("unchanged peripheral state not shared")
	}
	if vec(ra, "diff") == vec(rb, "diff") {
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
	if !ok || *at(rec.HW.Get("p0"), "r", 0) != 3 {
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
	hw := map[string]*sim.HWState{}
	for p := 0; p < 1+rnd.Intn(3); p++ {
		name := string(rune('a' + p))
		regs, mems, inputs := map[string]uint64{}, map[string][]uint64{}, map[string]uint64{}
		for r := 0; r < rnd.Intn(4); r++ {
			regs[string(rune('r'+r))] = rnd.Uint64()
		}
		for m := 0; m < rnd.Intn(2); m++ {
			words := make([]uint64, 1+rnd.Intn(4))
			for i := range words {
				words[i] = rnd.Uint64()
			}
			mems[string(rune('m'+m))] = words
		}
		for i := 0; i < rnd.Intn(2); i++ {
			inputs[string(rune('i'+i))] = rnd.Uint64()
		}
		hw[name] = hwState(regs, mems, inputs)
	}
	edges := make([]bool, rnd.Intn(4))
	for i := range edges {
		edges[i] = rnd.Intn(2) == 1
	}
	return Record{HW: stateOf(hw), IRQEdges: edges}
}

// Property: the digest is deterministic — recomputing it over an
// equal record built separately (different map iteration order,
// different allocations) always matches, and an Encode/Decode round trip preserves it.
func TestQuickDigestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rec := genRecord(rand.New(rand.NewSource(seed)))
		d1 := DigestRecord(&rec)
		cp := genRecord(rand.New(rand.NewSource(seed)))
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
	ib := s.Put(genRecord(rand.New(rand.NewSource(7))))
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
	if *at(back.HW.Get("p0"), "r", 0) != 123 || *at(back.HW.Get("p0"), "m", 2) != 123 {
		t.Fatalf("round trip: %+v", back.HW.Get("p0"))
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
