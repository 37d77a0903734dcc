package remote

import (
	"net"
	"sync"
	"testing"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/vtime"
)

// v3PipeSrv is v3Pipe, but also hands back the server so tests can
// reach into its chunk cache, which holds at most chunkCap chunks.
func v3PipeSrv(t *testing.T, chunkCap int) (*TargetClient, *Server) {
	t.Helper()
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	srv.chunks = newChunkLRU(chunkCap)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.ServeConn(sConn)
	}()
	t.Cleanup(func() {
		cConn.Close()
		sConn.Close()
		wg.Wait()
	})
	c, err := Connect(cConn, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func dropChunk(srv *Server, d snapshot.Digest) bool { return srv.chunks.drop(d) }

// setCap changes the bound (<=0 removes it), evicting down to it.
func (c *chunkLRU) setCap(n int) {
	c.mu.Lock()
	c.cap = n
	c.evictLocked()
	c.mu.Unlock()
}

// resident is the number of chunks the cache holds.
func (c *chunkLRU) resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// drop evicts one digest by hand, as cache pressure would.
func (c *chunkLRU) drop(d snapshot.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[d]
	if ok {
		c.remove(el)
	}
	return ok
}

// TestChunkCapLRU exercises the server-side cache bound: a save of
// more chunks than the cap holds leaves only the most recent resident,
// and a later restore still succeeds by re-uploading the evicted
// content.
func TestChunkCapLRU(t *testing.T) {
	c, srv := v3PipeSrv(t, 1)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0x5A); err != nil {
		t.Fatal(err)
	}
	st, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(st) < 2 {
		t.Fatalf("save has %d chunks; the test needs more than the cap", len(st))
	}
	if n := srv.chunks.resident(); n != 1 {
		t.Fatalf("cap 1 left %d of %d chunks resident", n, len(st))
	}

	// Dirty the target, then restore the saved state. The server
	// evicted most of it, so the client must re-upload — and with cap
	// 1 every push round is itself under eviction pressure; the
	// pinned-frame rule is what lets this converge.
	engineStep(t, c, 7)
	if err := c.Restore(st); err != nil {
		t.Fatalf("restore against capped cache: %v", err)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5A {
		t.Fatalf("gpio reg after restore = %#x, want 0x5a", v)
	}
}

// TestEvictionRacesNegotiation reproduces the digest-negotiation
// race: at kRestore time the server claims to hold a chunk, then
// evicts it (cache pressure from another session) before the client's
// kPush lands. The push response must re-list the evicted digest as
// missing and the client must re-upload it as a delta instead of
// failing the restore.
func TestEvictionRacesNegotiation(t *testing.T) {
	c, srv := v3PipeSrv(t, DefaultChunkCap)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0xC3); err != nil {
		t.Fatal(err)
	}
	st, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	gpioDigest := snapshot.HWDigest(st.Get("gpio0"))
	timerDigest := snapshot.HWDigest(st.Get("timer0"))

	// Pre-race state: the server has already lost timer0 (so the
	// kRestore reply will list it missing and trigger a push), but
	// still claims gpio0.
	if !dropChunk(srv, timerDigest) {
		t.Fatal("timer0 chunk not resident after save")
	}

	// The race: the moment the first push arrives — after the server
	// told the client it holds gpio0 — gpio0 is evicted. One-shot, so
	// the second round converges.
	fired := false
	srv.testBeforePush = func() {
		if fired {
			return
		}
		fired = true
		if !dropChunk(srv, gpioDigest) {
			t.Error("gpio0 chunk not resident at push time")
		}
	}

	engineStep(t, c, 9)
	if err := c.Restore(st); err != nil {
		t.Fatalf("restore across mid-negotiation eviction: %v", err)
	}
	if !fired {
		t.Fatal("race window never opened: no push round happened")
	}

	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xC3 {
		t.Fatalf("gpio reg after restore = %#x, want 0xc3", v)
	}
}
