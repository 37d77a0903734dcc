package remote

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

func newV3Target(t testing.TB) *target.Target {
	t.Helper()
	tg, err := target.NewSimulator("remote-sim", &vtime.Clock{}, []target.PeriphConfig{
		{Name: "gpio0", Periph: "gpio"},
		{Name: "timer0", Periph: "timer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// v3Pipe hosts tg behind a v3 server on an in-process pipe and
// connects a client.
func v3Pipe(t *testing.T, tg *target.Target) *TargetClient {
	t.Helper()
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
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
	return c
}

// v3TCP hosts tg behind a v3 server on localhost TCP; the returned
// dial function opens extra connections (worker spawns, redials).
func v3TCP(t *testing.T, tg *target.Target) (*TargetClient, func() (net.Conn, error)) {
	t.Helper()
	srv := NewServer(tg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ListenAndServe(ln)
	}()
	dial := func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		ln.Close()
		<-done
	})
	c, err := Connect(conn, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	c.Dial = dial
	return c, dial
}

// engineStep emulates one scheduling step's hardware traffic: bus
// writes, a clock advance, an IRQ sweep and a violation check.
func engineStep(t *testing.T, c *TargetClient, i uint32) {
	t.Helper()
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	timer, err := c.Port("timer0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, i); err != nil {
		t.Fatal(err)
	}
	if err := timer.WriteReg(0x00, i+1); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	if _, err := gpio.IRQLevel(); err != nil {
		t.Fatal(err)
	}
	if _, err := timer.IRQLevel(); err != nil {
		t.Fatal(err)
	}
	c.TakeViolations()
}

func TestRemoteReadWrite(t *testing.T) {
	c := v3Pipe(t, newV3Target(t))
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xBEEF {
		t.Fatalf("remote readback %#x", v)
	}
	if _, err := c.Port("nope"); err == nil {
		t.Fatal("unknown peripheral name must be rejected client-side")
	}
}

func TestRemoteIRQAndAdvance(t *testing.T) {
	tg, err := target.NewSimulator("sim", &vtime.Clock{}, []target.PeriphConfig{
		{Name: "timer0", Periph: "timer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := v3Pipe(t, tg)
	timer, err := c.Port("timer0")
	if err != nil {
		t.Fatal(err)
	}
	if err := timer.WriteReg(0x00, 5); err != nil {
		t.Fatal(err)
	}
	if err := timer.WriteReg(0x08, 3); err != nil {
		t.Fatal(err)
	}
	level, err := timer.IRQLevel()
	if err != nil {
		t.Fatal(err)
	}
	if level {
		t.Fatal("irq too early")
	}
	if err := c.Advance(10); err != nil {
		t.Fatal(err)
	}
	level, err = timer.IRQLevel()
	if err != nil {
		t.Fatal(err)
	}
	if !level {
		t.Fatal("irq not raised after remote advance")
	}
}

func TestRemoteOverTCP(t *testing.T) {
	c, _ := v3TCP(t, newV3Target(t))
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x08, 0xFF); err != nil {
		t.Fatal(err)
	}
	v, err := gpio.ReadReg(0x08)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xFF {
		t.Fatalf("tcp readback %#x", v)
	}
}

func TestV3BatchCoalescing(t *testing.T) {
	tg := newV3Target(t)
	c := v3Pipe(t, tg)
	base := c.WireStats().Frames // hello

	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	// Writes and the advance queue locally...
	for i := uint32(0); i < 8; i++ {
		if err := gpio.WriteReg(0x00, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance(5); err != nil {
		t.Fatal(err)
	}
	if got := c.WireStats().Frames - base; got != 0 {
		t.Fatalf("queued ops sent %d frames before flush", got)
	}
	// ...and the read coalesces into the single flushed frame.
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("readback %#x, want 7", v)
	}
	if got := c.WireStats().Frames - base; got != 1 {
		t.Fatalf("write burst + advance + read cost %d frames, want 1", got)
	}
	// Mirrored telemetry answers the engine's bookkeeping for free.
	preFrames := c.WireStats().Frames
	if _, err := gpio.IRQLevel(); err != nil {
		t.Fatal(err)
	}
	c.Generation()
	c.AnchorSeq()
	if vs := c.TakeViolations(); vs != nil {
		t.Fatalf("unexpected violations %v", vs)
	}
	if got := c.WireStats().Frames - preFrames; got != 0 {
		t.Fatalf("mirrored reads cost %d frames, want 0", got)
	}
	// The mirrors agree with the server-side truth.
	if c.Generation() != tg.Generation() {
		t.Fatalf("generation mirror %d != %d", c.Generation(), tg.Generation())
	}
	if c.Clock().Now() != tg.Clock().Now() {
		t.Fatalf("clock mirror %v != %v", c.Clock().Now(), tg.Clock().Now())
	}
	if cyc := tg.Stats().Cycles; cyc != 5 {
		t.Fatalf("advance reached target with %d cycles, want 5", cyc)
	}
}

// TestV3StepFrameBudget: a scheduling step's hardware traffic (bus
// writes, advance, IRQ sweep, violation check) costs at most one frame.
func TestV3StepFrameBudget(t *testing.T) {
	const steps = 20
	c := v3Pipe(t, newV3Target(t))
	base := c.WireStats().Frames
	for i := 0; i < steps; i++ {
		engineStep(t, c, uint32(i))
	}
	if got := c.WireStats().Frames - base; got > steps {
		t.Fatalf("%d frames for %d steps, want ≤ 1/step", got, steps)
	}
}

func TestV3SaveRestoreDigestNegotiation(t *testing.T) {
	tg := newV3Target(t)
	c := v3Pipe(t, tg)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}

	// First save: every chunk is new on the client side.
	st1, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	got1 := c.WireStats()
	if got1.StateBytesReceived == 0 {
		t.Fatal("first save should transfer state bytes")
	}

	// Second save with no intervening mutation: the generation skip
	// lives in the snapshot manager, but even a forced wire save moves
	// zero bytes — every digest is already cached.
	st2, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	got2 := c.WireStats()
	if d := got2.StateBytesReceived - got1.StateBytesReceived; d != 0 {
		t.Fatalf("clean re-save transferred %d bytes, want 0", d)
	}
	if got2.ChunksSkipped <= got1.ChunksSkipped {
		t.Fatal("clean re-save should count skipped chunks")
	}
	if snapshot.DigestRecord(&snapshot.Record{HW: st1}) != snapshot.DigestRecord(&snapshot.Record{HW: st2}) {
		t.Fatal("clean re-save produced different content")
	}

	// Dirty one peripheral: only its chunk crosses the wire.
	if err := gpio.WriteReg(0x00, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	pre := c.WireStats()
	st3, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	post := c.WireStats()
	if post.StateBytesReceived == pre.StateBytesReceived {
		t.Fatal("dirty save should transfer the dirty chunk")
	}
	if skipped := post.ChunksSkipped - pre.ChunksSkipped; skipped != 1 {
		t.Fatalf("dirty save skipped %d chunks, want 1 (clean timer0)", skipped)
	}

	// Restore of previously saved content: the server holds every
	// chunk, so the digest offer alone settles it — zero state bytes.
	pre = c.WireStats()
	if err := c.Restore(st1); err != nil {
		t.Fatal(err)
	}
	post = c.WireStats()
	if d := post.StateBytesSent - pre.StateBytesSent; d != 0 {
		t.Fatalf("restore of server-known state sent %d bytes, want 0", d)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xAA {
		t.Fatalf("restored readback %#x, want 0xAA", v)
	}
	_ = st3
}

func TestV3RestoreDelta(t *testing.T) {
	tg := newV3Target(t)
	c := v3Pipe(t, tg)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0x11); err != nil {
		t.Fatal(err)
	}
	st, err := c.Save() // anchors the server-side dirty tracking
	if err != nil {
		t.Fatal(err)
	}
	anchor := c.AnchorSeq()
	if err := gpio.WriteReg(0x00, 0x22); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if c.AnchorSeq() != anchor {
		t.Fatal("plain writes must not move the anchor")
	}
	pre := c.WireStats()
	did, err := c.RestoreDelta(st)
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("delta restore against its own anchor should succeed")
	}
	if d := c.WireStats().StateBytesSent - pre.StateBytesSent; d != 0 {
		t.Fatalf("delta restore of negotiated content sent %d state bytes, want 0", d)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x11 {
		t.Fatalf("delta-restored readback %#x, want 0x11", v)
	}
	if tg.Stats().DeltaRestores == 0 {
		t.Fatal("server target did not use the incremental path")
	}
}

func TestV3SpawnWorkerIsolation(t *testing.T) {
	tg := newV3Target(t)
	c, _ := v3TCP(t, tg)
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0x5A); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	wi, err := c.SpawnWorker("remote-sim-w1", &vtime.Clock{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := wi.(*TargetClient)
	if w.Name() != "remote-sim-w1" {
		t.Fatalf("worker name %q", w.Name())
	}
	wgpio, err := w.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	// A spawned clone comes up in power-on state, exactly like a
	// local Spawn...
	v, err := wgpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("spawned worker not at power-on state: %#x", v)
	}
	// ...and is seeded with the parent's live state via AdoptState,
	// which crosses the wire as digests only (the chunks moved during
	// the parent's Save and the caches are shared).
	st, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	pre := c.WireStats()
	if err := w.AdoptState(st); err != nil {
		t.Fatal(err)
	}
	if d := c.WireStats().StateBytesSent - pre.StateBytesSent; d != 0 {
		t.Fatalf("adopt of negotiated state sent %d bytes, want 0", d)
	}
	v, err = wgpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5A {
		t.Fatalf("worker adopted %#x, want 0x5A", v)
	}
	// ...but mutates independently.
	if err := wgpio.WriteReg(0x00, 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	v, err = gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5A {
		t.Fatalf("worker write leaked into parent: %#x", v)
	}
}

// TestV3PipeliningHidesLatency: a burst of full batch frames overlaps
// the link's latency. With both directions delayed, stop-and-wait costs
// at least one round trip per frame, so finishing under that bound
// proves frames were in flight together.
func TestV3PipeliningHidesLatency(t *testing.T) {
	const (
		frames = 12
		oneWay = 2 * time.Millisecond
	)
	tg := newV3Target(t)
	srv := NewServer(tg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ListenAndServeWith(ln, func(conn net.Conn) net.Conn { return NewLatencyConn(conn, oneWay) })
	}()
	defer func() { ln.Close(); <-done }()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewLatencyConn(raw, oneWay)
	defer conn.Close()
	c, err := Connect(conn, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	pre := c.WireStats().Frames
	start := time.Now()
	for i := 0; i < frames*maxBatch; i++ {
		if err := gpio.WriteReg(0x00, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if n := c.WireStats().Frames - pre; n != frames {
		t.Fatalf("%d writes took %d frames, want %d", frames*maxBatch, n, frames)
	}
	stopAndWait := frames * 2 * oneWay
	if took >= stopAndWait {
		t.Fatalf("pipelining did not help: %d frames took %v, stop-and-wait bound %v", frames, took, stopAndWait)
	}
	t.Logf("%d frames over a %v one-way link: %v, stop-and-wait bound %v", frames, oneWay, took, stopAndWait)
}

// corruptNthConn flips a payload byte of the nth written frame.
type corruptNthConn struct {
	net.Conn
	mu sync.Mutex
	n  int
	i  int
}

func (c *corruptNthConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.i++
	hit := c.i == c.n
	c.mu.Unlock()
	if hit && len(p) > v3HdrLen {
		q := append([]byte(nil), p...)
		q[v3HdrLen] ^= 0x80 // payload byte: header framing survives
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

// dropNthConn swallows the nth written frame entirely.
type dropNthConn struct {
	net.Conn
	mu sync.Mutex
	n  int
	i  int
}

func (c *dropNthConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.i++
	hit := c.i == c.n
	c.mu.Unlock()
	if hit {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestV3CorruptedBatchRetransmittedOnce corrupts a multi-op batch
// frame in flight. The server must reject it as a unit (vstatusBadFrame,
// nothing applied), and the client must retransmit it exactly once as
// a unit — the advance it carries lands exactly once on the target
// clock.
func TestV3CorruptedBatchRetransmittedOnce(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	go func() { _ = srv.ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	// Frame 1 is the hello; frame 2 is the batch under test.
	c, err := Connect(&corruptNthConn{Conn: cConn, n: 2}, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0xC3); err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x04, 0x3C); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(5); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatalf("flush through corrupted frame: %v", err)
	}
	if r := c.WireStats().Retransmits; r != 1 {
		t.Fatalf("retransmits = %d, want exactly 1", r)
	}
	// Applied exactly once, never partially: the advance is the
	// non-idempotent witness.
	if cyc := tg.Stats().Cycles; cyc != 5 {
		t.Fatalf("advance applied %d cycles, want exactly 5", cyc)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xC3 {
		t.Fatalf("readback %#x after retransmit", v)
	}
}

// TestV3DroppedBatchRetransmittedOnce drops a batch frame on the
// floor; the per-transaction deadline detects the loss and the window
// retransmits once, on the same connection.
func TestV3DroppedBatchRetransmittedOnce(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	go func() { _ = srv.ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	c, err := Connect(&dropNthConn{Conn: cConn, n: 2}, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 50 * time.Millisecond

	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0x77); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(3); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatalf("flush through dropped frame: %v", err)
	}
	if r := c.WireStats().Retransmits; r != 1 {
		t.Fatalf("retransmits = %d, want exactly 1", r)
	}
	if cyc := tg.Stats().Cycles; cyc != 3 {
		t.Fatalf("advance applied %d cycles, want exactly 3", cyc)
	}
}

// TestV3UnderFaultyLink runs the full engine-step pattern through a
// FaultConn that drops and corrupts whole frames, with redial armed.
func TestV3UnderFaultyLink(t *testing.T) {
	tg := newV3Target(t)
	srv := NewServer(tg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ListenAndServe(ln)
	}()
	t.Cleanup(func() { ln.Close(); <-done })

	seed := int64(7)
	dial := func() (net.Conn, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		seed++
		return target.NewFaultConn(raw, target.FaultSchedule{
			Seed:        seed,
			DropRate:    0.10,
			CorruptRate: 0.05,
		}), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, &vtime.Clock{})
	if err != nil {
		// The very first hello can be eaten by the schedule; retry on
		// a fresh conn.
		conn, err = dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err = Connect(conn, &vtime.Clock{})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Dial = dial
	c.Timeout = 100 * time.Millisecond

	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 30
	for i := 0; i < steps; i++ {
		if err := gpio.WriteReg(0x00, uint32(i)); err != nil {
			t.Fatalf("write %d under faults: %v", i, err)
		}
		if err := c.Advance(1); err != nil {
			t.Fatalf("advance %d under faults: %v", i, err)
		}
		v, err := gpio.ReadReg(0x00)
		if err != nil {
			t.Fatalf("read %d under faults: %v", i, err)
		}
		if v != uint32(i) {
			t.Fatalf("step %d readback %#x", i, v)
		}
	}
	// Exactly-once semantics survive the chaos.
	if cyc := tg.Stats().Cycles; cyc != steps {
		t.Fatalf("cycles %d, want %d (duplicated or lost advances)", cyc, steps)
	}
	t.Logf("%d steps, %d frames, %d retransmits", steps, c.WireStats().Frames, c.WireStats().Retransmits)
}

func TestServeConnV3UnknownKindBeforeHello(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	if err := writeFrame(cConn, 0x1E, 1, nil); err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if err == nil {
		t.Fatal("sequenced frame before hello must error")
	}
	if !strings.Contains(err.Error(), "before hello") {
		t.Fatalf("error %q, want before-hello", err)
	}
}

func TestServeConnV3UnknownKindAfterHello(t *testing.T) {
	tg := newV3Target(t)
	c := v3Pipe(t, tg)
	// An unknown sequenced kind is a typed fatal error, and the
	// session survives it.
	f, err := c.sendSeq(0x1E, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for !f.done {
		if err := c.drainOne(); err != nil {
			t.Fatal(err)
		}
	}
	if f.err == nil {
		t.Fatal("unknown kind must produce an error response")
	}
	if !target.IsFatal(f.err) {
		t.Fatalf("unknown kind error %v, want fatal class", f.err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("link dead after unknown kind: %v", err)
	}
}

func TestServeConnV3TruncatedFrame(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	// A valid header announcing a payload, then a hard close.
	hdr := make([]byte, v3HdrLen)
	hdr[0] = kBatch
	hdr[5] = 64 // length
	hdr[9] = crc8(hdr[:9])
	if _, err := cConn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	cConn.Close()
	err := <-errc
	if err == nil {
		t.Fatal("truncated v3 frame must error, not masquerade as clean close")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error %q, want truncation", err)
	}
}

func TestServeConnV3EOFBetweenFramesIsClean(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(sConn) }()

	c, err := Connect(cConn, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	cConn.Close()
	if err := <-errc; err != nil {
		t.Fatalf("clean close between frames: ServeConn returned %v", err)
	}
}

func TestServeConnV3HeaderCorruptionDesyncs(t *testing.T) {
	tg := newV3Target(t)
	cConn, sConn := net.Pipe()
	srv := NewServer(tg)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	done := make(chan error, 1)
	go func() {
		if _, err := Connect(cConn, &vtime.Clock{}); err != nil {
			done <- err
			return
		}
		hdr := make([]byte, v3HdrLen)
		hdr[0] = kBatch
		hdr[9] = crc8(hdr[:9]) ^ 0xFF // bad header CRC
		_, err := cConn.Write(hdr)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	err := <-errc
	if !errors.Is(err, errHdrCRC) {
		t.Fatalf("ServeConn returned %v, want the header-corruption error", err)
	}
}

// flipHeaderOnce flips one bit in the header of the first frame
// written, as a noisy link would.
type flipHeaderOnce struct {
	net.Conn
	done bool
}

func (c *flipHeaderOnce) Write(p []byte) (int, error) {
	if c.done || len(p) < v3HdrLen {
		return c.Conn.Write(p)
	}
	c.done = true
	q := append([]byte(nil), p...)
	q[2] ^= 0x10 // a sequence-number byte: the header CRC no longer matches
	return c.Conn.Write(q)
}

// TestServeConnV3PreHelloHeaderCorruptionFailsFast: a hello whose
// header is corrupted in flight desynchronizes the stream exactly like
// a later frame would. The server must end the connection with the
// header error, and Connect — which has no deadline at handshake time —
// must see the close and fail instead of waiting for an answer that
// cannot be framed.
func TestServeConnV3PreHelloHeaderCorruptionFailsFast(t *testing.T) {
	cConn, sConn := net.Pipe()
	srv := NewServer(newV3Target(t))
	errc := make(chan error, 1)
	go func() {
		err := srv.ServeConn(sConn)
		sConn.Close() // what ListenAndServe does when ServeConn returns
		errc <- err
	}()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })

	connected := make(chan error, 1)
	go func() {
		_, err := Connect(&flipHeaderOnce{Conn: cConn}, nil)
		connected <- err
	}()
	select {
	case err := <-connected:
		if err == nil {
			t.Fatal("Connect succeeded through a corrupted hello header")
		}
		var te *transportError
		if !errors.As(err, &te) {
			t.Fatalf("Connect error %v (%T), want a transport error", err, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Connect hung on a corrupted hello header")
	}
	if err := <-errc; !errors.Is(err, errHdrCRC) {
		t.Fatalf("ServeConn returned %v, want the header-corruption error", err)
	}
}

func TestV3DeferredWriteErrorSurfacesAtFlush(t *testing.T) {
	tg := newV3Target(t)
	c := v3Pipe(t, tg)
	// A queued op that the target will reject (no such peripheral
	// index) reports no error at enqueue time...
	c.enqueue(batchOp{op: bWrite, periph: 99, offset: 0, value: 1})
	// ...and surfaces when the batch flushes, with its class intact.
	err := c.flush()
	if err == nil {
		t.Fatal("flush must surface the deferred write error")
	}
	if !target.IsFatal(err) {
		t.Fatalf("deferred error %v lost its fatal class", err)
	}
	// The failed batch never poisons later traffic.
	if err := c.Ping(); err != nil {
		t.Fatalf("link dead after deferred error: %v", err)
	}
}
