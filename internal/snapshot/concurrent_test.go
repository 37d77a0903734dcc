package snapshot

import (
	"sync"
	"testing"
)

// TestStoreConcurrentHammer exercises the striped-lock store from 8
// goroutines doing overlapping Put/Get/Update/Adopt/Release on a
// small digest universe (maximum dedup contention on the content
// tables). Run under -race via the Makefile race gate. Invariants
// checked at the end: every reference released, no leaked entries or
// pooled peripherals, and counters that balance.
func TestStoreConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		iterations = 300
		universe   = 7 // distinct record contents → constant digest collisions
	)
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var owned []ID
			for i := 0; i < iterations; i++ {
				v := uint64((g*31 + i) % universe)
				switch i % 5 {
				case 0, 1:
					owned = append(owned, s.Put(record(v)))
				case 2:
					if len(owned) > 0 {
						id := owned[i%len(owned)]
						rec, ok := s.Get(id)
						if !ok || rec == nil {
							t.Errorf("goroutine %d: lost snapshot %d", g, id)
							return
						}
						if _, err := s.Update(id, record(v)); err != nil {
							t.Errorf("goroutine %d: update: %v", g, err)
							return
						}
					}
				case 3:
					if len(owned) > 0 {
						id := owned[i%len(owned)]
						if d, ok := s.DigestOf(id); ok {
							if nid, ok := s.Adopt(d); ok {
								owned = append(owned, nid)
							}
						}
					}
				case 4:
					if len(owned) > 1 {
						id := owned[len(owned)-1]
						owned = owned[:len(owned)-1]
						s.Release(id)
					}
				}
			}
			for _, id := range owned {
				s.Release(id)
			}
		}(g)
	}
	wg.Wait()

	if live := s.live.Load(); live != 0 {
		t.Fatalf("leaked %d live references", live)
	}
	if n := len(s.entries); n != 0 {
		t.Fatalf("leaked %d entries", n)
	}
	if len(s.pool) != 0 {
		t.Fatalf("leaked %d pooled peripherals", len(s.pool))
	}
	st := s.Stats()
	if st.Puts == 0 || st.Gets == 0 || st.Releases == 0 || st.DedupHits == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
	if st.Releases > st.Puts {
		t.Fatalf("more releases (%d) than puts (%d)", st.Releases, st.Puts)
	}
	if st.PeakLive <= 1 || st.PeakLive > goroutines*iterations {
		t.Fatalf("implausible peak live %d", st.PeakLive)
	}
}

// TestStoreConcurrentSharedDigest adopts a single hot digest from many
// goroutines while others release their references, racing refcount
// increments against the last-reference teardown path.
func TestStoreConcurrentSharedDigest(t *testing.T) {
	s := NewStore()
	root := s.Put(record(99))
	d, ok := s.DigestOf(root)
	if !ok {
		t.Fatal("no digest for root")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if id, ok := s.Adopt(d); ok {
					if _, ok := s.Get(id); !ok {
						t.Error("adopted id must resolve")
						return
					}
					s.Release(id)
				}
			}
		}()
	}
	wg.Wait()
	// Root keeps the entry alive through it all.
	if _, ok := s.RecordByDigest(d); !ok {
		t.Fatal("root entry died while referenced")
	}
	s.Release(root)
	if s.live.Load() != 0 || len(s.entries) != 0 {
		t.Fatalf("leak: live=%d entries=%d", s.live.Load(), len(s.entries))
	}
}
