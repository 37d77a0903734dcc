package remote

import (
	"container/list"
	"sync"

	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
)

// DefaultChunkCap bounds a peripheral-chunk cache, the server's and the
// client's alike. A chunk is a few hundred bytes, so the default costs
// a few MiB at worst while still covering any realistic working set.
const DefaultChunkCap = 1 << 14

// chunkLRU is a content-addressed cache of peripheral states, bounded to
// its cap most recently used entries. Both ends of the wire keep one: a
// miss after an eviction only costs the transfer the cache had saved.
type chunkLRU struct {
	mu    sync.Mutex
	m     map[snapshot.Digest]*list.Element // value: *chunkEnt
	order *list.List                        // front = most recently used
	cap   int                               // max resident chunks; <=0 means unbounded
}

type chunkEnt struct {
	d  snapshot.Digest
	hw *sim.HWState
}

func newChunkLRU(cap int) *chunkLRU {
	return &chunkLRU{m: make(map[snapshot.Digest]*list.Element), order: list.New(), cap: cap}
}

func (c *chunkLRU) get(d snapshot.Digest) (*sim.HWState, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[d]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*chunkEnt).hw, true
}

// put banks hw under d and reports whether d was new to the cache (a
// resident digest keeps the state it already has).
func (c *chunkLRU) put(d snapshot.Digest, hw *sim.HWState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[d]; ok {
		c.order.MoveToFront(el)
		return false
	}
	c.m[d] = c.order.PushFront(&chunkEnt{d: d, hw: hw})
	c.evictLocked()
	return true
}

// bank decodes the chunks of one frame, verifies each against its
// digest, caches it and pins it in into, where eviction cannot unbank
// it before the receiver has assembled its state. It returns the state
// bytes banked.
func (c *chunkLRU) bank(chunks []wireChunk, into map[snapshot.Digest]*sim.HWState, how string) (int, error) {
	n := 0
	for _, ch := range chunks {
		hw, err := snapshot.DecodeChunk(ch.Data, ch.Digest)
		if err != nil {
			return n, integrityErr("%s chunk %x: %v", how, ch.Digest[:8], err)
		}
		n += len(ch.Data)
		c.put(ch.Digest, hw)
		into[ch.Digest] = hw
	}
	return n, nil
}

func (c *chunkLRU) evictLocked() {
	for c.cap > 0 && len(c.m) > c.cap {
		c.remove(c.order.Back())
	}
}

func (c *chunkLRU) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.m, el.Value.(*chunkEnt).d)
}
