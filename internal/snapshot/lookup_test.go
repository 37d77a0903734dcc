package snapshot

import (
	"math/rand"
	"testing"

	"hardsnap/internal/sim"
	"hardsnap/internal/target"
	"hardsnap/internal/testseed"
)

// TestNameByLookupMatchesHWDigest: the store names a peripheral state
// it already holds by looking it up, and only hashes one new to it.
// Random Put/Update/Release programs over states whose vectors recur,
// laid out in two layouts with equal names but distinct pointers (as
// two workers' simulators lay them out) and a third with other names
// and the same length, run on a store with the content index, one
// without it and one whose every key collides. Every content address
// the stores assign must be the one hashing gives, and the three
// stores must end with equal counters.
func TestNameByLookupMatchesHWDigest(t *testing.T) {
	rnd := rand.New(rand.NewSource(testseed.Seed))
	for i := 0; i < 50; i++ {
		prog := make([]byte, 64+rnd.Intn(512))
		rnd.Read(prog)
		checkNameByLookup(t, prog)
	}
}

// FuzzNameByLookup is TestNameByLookupMatchesHWDigest on programs the
// fuzzer writes.
func FuzzNameByLookup(f *testing.F) {
	rnd := rand.New(rand.NewSource(testseed.Seed))
	for i := 0; i < 4; i++ {
		prog := make([]byte, 128)
		rnd.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		checkNameByLookup(t, prog[:min(len(prog), 4096)])
	})
}

// lookupLayouts are the layouts the programs draw states from: 0 and 1
// list equal names, 2 other names over a vector of the same length.
func lookupLayouts() []*sim.Layout {
	return []*sim.Layout{
		{Regs: []string{"a", "b"}, Mems: []string{"m"}, Depths: []int{2}},
		{Regs: []string{"a", "b"}, Mems: []string{"m"}, Depths: []int{2}},
		{Regs: []string{"a", "c"}, Mems: []string{"m"}, Depths: []int{2}},
	}
}

// checkNameByLookup runs prog, a byte program, on three stores that
// differ only in how they find pooled states (see
// TestNameByLookupMatchesHWDigest). Each operation is one byte: a Put,
// an Update or a Release; a Put or Update reads a record after it (a
// peripheral count, then per peripheral a layout and four values from
// a small range, so that vectors recur), an Update or Release a slot.
func checkNameByLookup(t testing.TB, prog []byte) {
	t.Helper()
	layouts := lookupLayouts()
	stores := []*Store{NewStore(), NewStore(), NewStore()}
	stores[1].key = nil
	stores[2].key = func([]uint64) uint64 { return 7 }
	ids := make([][]ID, len(stores))
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	for len(prog) > 0 {
		op := next() % 3
		var rec Record
		if op != 2 {
			for p := 0; p < 1+next()%2; p++ {
				l := layouts[next()%len(layouts)]
				vals := make([]uint64, l.Len())
				for i := range vals {
					vals[i] = uint64(next() % 3)
				}
				rec.HW = append(rec.HW, target.PeriphState{Name: string(rune('p' + p)), HW: *sim.NewHWState(l, vals)})
			}
		}
		want := DigestRecord(&rec)
		slot := next()
		for i, s := range stores {
			var got Digest
			switch {
			case op == 2:
				if len(ids[i]) > 0 {
					k := slot % len(ids[i])
					s.Release(ids[i][k])
					ids[i] = append(ids[i][:k], ids[i][k+1:]...)
				}
				checkPool(t, s)
				continue
			case op == 0 || len(ids[i]) == 0:
				var id ID
				id, got = s.PutDigest(rec)
				ids[i] = append(ids[i], id)
			default:
				var err error
				if got, err = s.Update(ids[i][slot%len(ids[i])], rec); err != nil {
					t.Fatal(err)
				}
			}
			if got != want {
				t.Fatalf("store %d named a record %x, DigestRecord is %x", i, got[:8], want[:8])
			}
			checkPool(t, s)
		}
	}
	for i, s := range stores[1:] {
		if a, b := stores[0].Stats(), s.Stats(); a != b {
			t.Fatalf("counters differ between the indexed store and store %d:\n%+v\n%+v", i+1, a, b)
		}
	}
}

// checkPool checks that every pooled state sits under its HWDigest and,
// when s indexes its pool, is found by its key exactly once, and that
// the index holds nothing else.
func checkPool(t testing.TB, s *Store) {
	t.Helper()
	indexed := 0
	for _, head := range s.index {
		for pe := head; pe != nil; pe = pe.next {
			indexed++
		}
	}
	for d, pe := range s.pool {
		if HWDigest(pe.hw) != d || pe.digest != d {
			t.Fatalf("pool entry %x holds a state whose HWDigest is %x", d[:8], HWDigest(pe.hw))
		}
		if s.key == nil {
			continue
		}
		n := 0
		for e := s.index[s.key(pe.hw.Vals())]; e != nil; e = e.next {
			if e == pe {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("pool entry %x is in the index %d times", d[:8], n)
		}
	}
	if s.key != nil && indexed != len(s.pool) {
		t.Fatalf("index holds %d entries, pool %d", indexed, len(s.pool))
	}
}
