package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// ClientStats is a snapshot of a client's wire-level counters. Frames
// counts transmitted request frames — each is one wire round trip —
// which is the quantity v3's batching attacks; Retransmits counts
// go-back-N window replays after faults; ChunksSkipped counts
// peripheral state chunks digest negotiation kept off the wire.
type ClientStats struct {
	Frames             uint64
	Retransmits        uint64
	Ops                uint64
	StateBytesSent     uint64
	StateBytesReceived uint64
	ChunksSkipped      uint64
	// Reconnects counts successful redial + re-attach recoveries after
	// the link was lost mid-session.
	Reconnects uint64
}

// wireStats is the atomic backing store, shared between a root client
// and the workers it spawns so a benchmark reads one total.
type wireStats struct {
	frames        atomic.Uint64
	retransmits   atomic.Uint64
	ops           atomic.Uint64
	bytesSent     atomic.Uint64
	bytesReceived atomic.Uint64
	chunksSkipped atomic.Uint64
	reconnects    atomic.Uint64
}

func (w *wireStats) snapshot() ClientStats {
	return ClientStats{
		Frames:             w.frames.Load(),
		Retransmits:        w.retransmits.Load(),
		Ops:                w.ops.Load(),
		StateBytesSent:     w.bytesSent.Load(),
		StateBytesReceived: w.bytesReceived.Load(),
		ChunksSkipped:      w.chunksSkipped.Load(),
		Reconnects:         w.reconnects.Load(),
	}
}

// sentFrame is one unacknowledged v3 request. wire is the sealed
// frame, built once and retransmitted as is. background marks the
// batch frames flushed from the op queue, whose per-op errors are
// deferred to the flush result rather than any single caller.
type sentFrame struct {
	kind       byte
	seq        uint32
	wire       []byte
	background bool

	done bool
	body []byte
	err  error
}

// The link policy every client runs with. maxBatch caps the ops of one
// batch frame and maxInflight the frames pipelined unacknowledged.
// maxRetries bounds the window retransmissions and redials spent on one
// drained response; the delay between them starts at retryBackoff and
// doubles up to retryBackoffMax.
const (
	maxBatch        = 64
	maxInflight     = 8
	maxRetries      = 4
	retryBackoff    = 200 * time.Microsecond
	retryBackoffMax = 50 * time.Millisecond
)

// TargetClient speaks protocol v3 and exposes the remote target
// behind the full target.Interface, so the engine — scheduler,
// snapshot manager, parallel worker fan-out — runs against remote
// hardware unchanged.
//
// The client is the batching layer: register writes, clock advances
// and resets queue locally and cross the wire as one vectored frame
// when something forces a flush (a read, an IRQ sample with a dirty
// queue, a snapshot boundary). Errors of queued ops surface at that
// flush. Response telemetry (generation, anchor sequence, virtual
// clock, IRQ levels, pending violation count) is mirrored client-side
// so the engine's bookkeeping reads cost no round trips.
//
// It is not safe for concurrent use; the VM serializes hardware
// access, matching the single memory bus of the modeled SoC. Workers
// spawned via SpawnWorker get their own connection and session and may
// run concurrently with the parent.
type TargetClient struct {
	conn  io.ReadWriter
	clock *vtime.Clock

	// Timeout is the per-frame deadline, applied when the connection
	// supports deadlines (any net.Conn); zero disables. Dial, when set,
	// re-establishes the link and re-attaches the session after a
	// transport error.
	Timeout time.Duration
	Dial    func() (net.Conn, error)

	token     uint32
	name      string
	kind      string
	stateBits uint
	periphs   []string
	pidx      map[string]int

	nextSeq     uint32
	inflight    []*sentFrame
	queue       []batchOp
	deferredErr error

	// irqMask has bit i set iff peripheral i can ever drive its IRQ
	// line (from the hello handshake); cleared bits answer IRQ polls
	// locally as constant-low. hasAssertions gates TakeViolations the
	// same way: an assertion-free target can never produce one.
	irqMask       uint64
	hasAssertions bool

	// Mirrors of the piggybacked response telemetry.
	gen        uint64
	genPoison  uint64
	anchorSeq  uint64
	lastNow    time.Duration
	irqBits    uint64
	irqValid   bool
	pending    uint32
	statsCache target.Stats

	// chunks is shared with the workers this client spawns.
	chunks *chunkLRU
	wire   *wireStats

	// spare holds the buffers of acknowledged request frames, for the
	// next ones to be built in.
	spare [][]byte

	// jitterState is the backoff-jitter LCG state (lazily seeded).
	jitterState uint64
}

var _ target.Interface = (*TargetClient)(nil)

// Connect performs the v3 hello handshake over conn and returns a
// client whose virtual clock mirror is clock (a fresh clock is used
// when nil).
func Connect(conn io.ReadWriter, clock *vtime.Clock) (*TargetClient, error) {
	if clock == nil {
		clock = &vtime.Clock{}
	}
	c := &TargetClient{
		conn:   conn,
		clock:  clock,
		chunks: newChunkLRU(DefaultChunkCap),
		wire:   &wireStats{},
	}
	info, err := c.handshake(kHello, 0)
	if err != nil {
		return nil, err
	}
	c.applyInfo(info)
	return c, nil
}

func (c *TargetClient) applyInfo(info helloInfo) {
	c.token = info.Token
	c.name = info.Name
	c.kind = info.Kind
	c.stateBits = info.StateBits
	c.periphs = info.Periphs
	c.irqMask = info.IRQMask
	c.hasAssertions = info.HasAssertions
	c.pidx = make(map[string]int, len(info.Periphs))
	for i, name := range info.Periphs {
		c.pidx[name] = i
	}
	c.nextSeq = info.LastApplied
}

// WireStats snapshots the wire-level counters (shared with spawned
// workers).
func (c *TargetClient) WireStats() ClientStats { return c.wire.snapshot() }

// Close closes the underlying connection when it supports it.
func (c *TargetClient) Close() error {
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// SeverLink forcibly closes the underlying connection without
// detaching the server session — the injection point for mid-run link
// loss (the exploration chaos harness severs through this seam). The
// next operation observes a transport error and recovers through the
// ordinary redial + re-attach + window-retransmit path; the server's
// duplicate suppression keeps already-applied frames from replaying.
func (c *TargetClient) SeverLink() error {
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return errors.New("remote: connection does not support severing")
}

// --- wire engine ---------------------------------------------------

func (c *TargetClient) setDeadline() func() {
	if d, ok := c.conn.(deadliner); ok && c.Timeout > 0 {
		_ = d.SetDeadline(time.Now().Add(c.Timeout))
		return func() { _ = d.SetDeadline(time.Time{}) }
	}
	return func() {}
}

func (c *TargetClient) xmit(f *sentFrame) error {
	restore := c.setDeadline()
	defer restore()
	if _, err := c.conn.Write(f.wire); err != nil {
		return &transportError{fmt.Errorf("remote: send frame %d: %w", f.seq, err)}
	}
	c.wire.frames.Add(1)
	return nil
}

// handshake sends an unsequenced kHello/kAttach and reads its
// response.
func (c *TargetClient) handshake(kind byte, token uint32) (helloInfo, error) {
	restore := c.setDeadline()
	defer restore()
	if err := writeFrame(c.conn, kind, 0, appendHello(nil, token)); err != nil {
		return helloInfo{}, &transportError{fmt.Errorf("remote: hello: %w", err)}
	}
	c.wire.frames.Add(1)
	rkind, _, rp, err := readFrame(c.conn)
	if err != nil {
		return helloInfo{}, &transportError{fmt.Errorf("remote: hello response: %w", err)}
	}
	if rkind != kResp {
		return helloInfo{}, &transportError{fmt.Errorf("remote: hello answered by frame kind %#x", rkind)}
	}
	m, body, err := decodeMeta(rp)
	if err != nil {
		return helloInfo{}, &transportError{err}
	}
	if m.status != vstatusOK {
		if m.status == vstatusErr {
			return helloInfo{}, decodeWireErr(body)
		}
		return helloInfo{}, &transportError{fmt.Errorf("remote: hello rejected (status %d)", m.status)}
	}
	info, err := decodeHelloInfo(body)
	if err != nil {
		return helloInfo{}, &transportError{fmt.Errorf("remote: hello info: %w", err)}
	}
	c.consume(m)
	return info, nil
}

// consume folds a response's piggybacked telemetry into the client
// mirrors. The virtual clock advances by the server-side delta, so
// locally charged time (symbolic execution costs) stacks on top
// exactly as it does against an in-process target.
func (c *TargetClient) consume(m respMeta) {
	c.gen = m.gen
	c.anchorSeq = m.anchorSeq
	c.pending = m.pending
	c.statsCache.Cycles = m.cycles
	if m.flags&1 != 0 {
		c.irqBits = m.irqBits
		c.irqValid = true
	} else {
		c.irqValid = false
	}
	now := time.Duration(m.serverNow)
	if d := now - c.lastNow; d > 0 {
		c.clock.Advance(d)
	}
	c.lastNow = now
}

func decodeWireErr(body []byte) error {
	if len(body) < 1 {
		return fatalErr(errors.New("malformed error response"))
	}
	class := target.ErrorClass(body[0])
	switch class {
	case target.Transient, target.Fatal, target.Integrity:
	default:
		class = target.Fatal
	}
	return &target.Error{Class: class, Op: "remote", Err: errors.New(string(body[1:]))}
}

// errProtoRetry marks a server rejection (vstatusBadFrame /
// vstatusOutOfOrder) that is cured by retransmitting the go-back-N
// window as a unit.
var errProtoRetry = transientErr(errors.New("server rejected frame; window retransmit needed"))

// recoverLink redials, re-attaches the session and retransmits every
// in-flight frame. The server's duplicate suppression guarantees
// frames that were already applied are not applied again; their
// cached responses replay instead.
func (c *TargetClient) recoverLink() error {
	if c.Dial == nil {
		return &transportError{errors.New("remote: link lost and no Dial configured")}
	}
	conn, err := c.Dial()
	if err != nil {
		return &transportError{fmt.Errorf("remote: redial: %w", err)}
	}
	if old, ok := c.conn.(io.Closer); ok {
		_ = old.Close()
	}
	c.conn = conn
	if _, err := c.handshake(kAttach, c.token); err != nil {
		return err
	}
	c.wire.reconnects.Add(1)
	return c.retransmitAll()
}

func (c *TargetClient) retransmitAll() error {
	for _, f := range c.inflight {
		if err := c.xmit(f); err != nil {
			return err
		}
		c.wire.retransmits.Add(1)
	}
	return nil
}

// jittered spreads a backoff delay over [d/2, d): clients that lost
// the same server redial desynchronized instead of hammering it in
// lockstep. The PRNG is a client-local LCG — jitter shapes host-side
// sleeps only and never touches virtual time or results.
func (c *TargetClient) jittered(d time.Duration) time.Duration {
	span := uint64(d) / 2
	if span == 0 {
		return d
	}
	if c.jitterState == 0 {
		c.jitterState = uint64(c.token)<<32 | 0x9e3779b9
	}
	c.jitterState = c.jitterState*6364136223846793005 + 1442695040888963407
	return time.Duration(span + (c.jitterState>>33)%span)
}

// retry spends the retry budget on a failure: while err is retryable
// it backs off and runs step, at most maxRetries times. Fatal and
// integrity errors (a rejected session token, a mismatched design)
// end the loop at once: no amount of retrying cures them. A transport
// failure that outlives the budget surfaces as a transient error.
func (c *TargetClient) retry(err error, step func(last error) error) error {
	backoff := retryBackoff
	for attempt := 1; err != nil && retryable(err) && attempt <= maxRetries; attempt++ {
		time.Sleep(c.jittered(backoff))
		backoff = min(backoff*2, retryBackoffMax)
		err = step(err)
	}
	var te *transportError
	if errors.As(err, &te) {
		return transientErr(te.err)
	}
	return err
}

// sendSeq transmits a sequenced frame, draining the pipeline when the
// window is full. The frame is built once, in a buffer recycled from an
// acknowledged one: body, when non-nil, appends the payload in place.
func (c *TargetClient) sendSeq(kind byte, body func(b []byte) []byte, background bool) (*sentFrame, error) {
	for len(c.inflight) >= maxInflight {
		if err := c.drainOne(); err != nil {
			return nil, err
		}
	}
	var b []byte
	if n := len(c.spare); n > 0 {
		b, c.spare = c.spare[n-1], c.spare[:n-1]
	}
	c.nextSeq++
	if b = beginFrame(b, kind, c.nextSeq); body != nil {
		b = body(b)
	}
	f := &sentFrame{kind: kind, seq: c.nextSeq, wire: endFrame(b), background: background}
	c.inflight = append(c.inflight, f)
	if err := c.xmit(f); err != nil {
		// A send-side transport failure: redial, which retransmits the
		// window, this frame included.
		if err := c.retry(err, func(error) error { return c.recoverLink() }); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// drainOne consumes one response from the pipeline, absorbing
// transient faults with backoff, redial and go-back-N window
// retransmission.
func (c *TargetClient) drainOne() error {
	return c.retry(c.readOne(), func(last error) error {
		var te *transportError
		var err error
		if errors.As(last, &te) && c.Dial != nil {
			err = c.recoverLink()
		} else {
			err = c.retransmitAll()
		}
		if err != nil {
			return err
		}
		return c.readOne()
	})
}

// readOne reads responses until the head-of-window frame is resolved.
// Responses for sequence numbers other than the head are either stale
// artifacts of a superseded transmission (ignored) or evidence of
// desynchronization (transport error).
func (c *TargetClient) readOne() error {
	if len(c.inflight) == 0 {
		return nil
	}
	head := c.inflight[0]
	for {
		restore := c.setDeadline()
		kind, seq, payload, err := readFrame(c.conn)
		restore()
		switch {
		case err == nil:
		case errors.Is(err, errPayloadCRC):
			// The response was corrupted in flight; retransmitting the
			// window makes the server replay it from the cache.
			return errProtoRetry
		default:
			return &transportError{fmt.Errorf("remote: receive: %w", err)}
		}
		if kind != kResp {
			return &transportError{fmt.Errorf("remote: unexpected frame kind %#x", kind)}
		}
		m, body, err := decodeMeta(payload)
		if err != nil {
			return &transportError{err}
		}
		if seq != head.seq {
			if seq < head.seq || m.status == vstatusBadFrame || m.status == vstatusOutOfOrder {
				// Stale: a response to a transmission this window
				// already superseded.
				continue
			}
			return &transportError{fmt.Errorf("remote: response for frame %d while %d heads the window", seq, head.seq)}
		}
		if m.status == vstatusBadFrame || m.status == vstatusOutOfOrder {
			return errProtoRetry
		}
		c.consume(m)
		c.inflight = c.inflight[1:]
		c.spare = append(c.spare, head.wire) // acknowledged: never retransmitted
		head.done = true
		head.body = body
		switch {
		case m.status == vstatusErr:
			head.err = decodeWireErr(body)
		case head.kind == kBatch:
			head.err = checkBatchErr(body)
		}
		if head.background && head.err != nil && c.deferredErr == nil {
			c.deferredErr = head.err
		}
		return nil
	}
}

// checkBatchErr surfaces the first failed op of a batch response.
func checkBatchErr(body []byte) error {
	n, err := batchCount(body, batchResultLen)
	if err != nil {
		return transientErr(err)
	}
	for i := 0; i < n; i++ {
		st := body[2+batchResultLen*i]
		if st == opStatusOK || st == opSkipped {
			continue
		}
		class := target.ErrorClass(st)
		switch class {
		case target.Transient, target.Fatal, target.Integrity:
		default:
			class = target.Fatal
		}
		return &target.Error{Class: class, Op: "remote",
			Err: errors.New("batched operation failed on target")}
	}
	return nil
}

func (c *TargetClient) enqueue(op batchOp) {
	c.queue = append(c.queue, op)
}

// sendQueued packs the op queue into pipelined batch frames. When
// capture is set the last frame is marked foreground and returned
// (with the index of its last op) so the caller can decode a result
// from it.
func (c *TargetClient) sendQueued(capture bool) (*sentFrame, int, error) {
	var capFrame *sentFrame
	capIdx := 0
	for len(c.queue) > 0 {
		n := min(len(c.queue), maxBatch)
		ops := c.queue[:n:n]
		c.queue = c.queue[n:]
		last := len(c.queue) == 0
		f, err := c.sendSeq(kBatch, func(b []byte) []byte { return appendBatch(b, ops) }, !(capture && last))
		if err != nil {
			c.queue = nil
			return nil, 0, err
		}
		c.wire.ops.Add(uint64(n))
		if capture && last {
			capFrame = f
			capIdx = n - 1
		}
	}
	return capFrame, capIdx, nil
}

// asyncFlush ships the op queue without waiting for responses: frames
// pipeline up to maxInflight deep (sendSeq blocks on a full window),
// which is what hides link latency under bursts of queued writes and
// advances. Response errors are deferred to the next synchronous
// flush, exactly like the queued ops' own errors.
func (c *TargetClient) asyncFlush() error {
	_, _, err := c.sendQueued(false)
	if err != nil {
		c.deferredErr = nil
	}
	return err
}

// flush drains the op queue and the pipeline, surfacing any deferred
// error from queued ops.
func (c *TargetClient) flush() error {
	_, err := c.flushCapture(false)
	return err
}

// flushCapture is flush, optionally returning the result value of the
// last queued op (reads and IRQ samples coalesce into the flush frame
// instead of paying their own round trip).
func (c *TargetClient) flushCapture(capture bool) (uint64, error) {
	capFrame, capIdx, err := c.sendQueued(capture)
	if err != nil {
		c.deferredErr = nil
		return 0, err
	}
	for len(c.inflight) > 0 {
		if err := c.drainOne(); err != nil {
			c.deferredErr = nil
			return 0, err
		}
	}
	err = c.deferredErr
	c.deferredErr = nil
	if capFrame != nil {
		if capFrame.err != nil {
			return 0, capFrame.err
		}
		// readOne already checked the body's framing (checkBatchErr).
		at := 2 + batchResultLen*capIdx
		if at+batchResultLen > len(capFrame.body) {
			return 0, transientErr(fmt.Errorf("remote: batch response has no result for op %d", capIdx))
		}
		return binary.LittleEndian.Uint64(capFrame.body[at+1:]), err
	}
	return 0, err
}

// mirrorsFresh reports whether the telemetry mirrors reflect every
// operation issued so far.
func (c *TargetClient) mirrorsFresh() bool {
	return len(c.queue) == 0 && len(c.inflight) == 0
}

// stashErr preserves an error produced on a path that cannot return
// one; the next flush surfaces it.
func (c *TargetClient) stashErr(err error) {
	if c.deferredErr == nil {
		c.deferredErr = err
	}
}

// roundTrip flushes pending work, sends one control frame (body as in
// sendSeq) and waits for its response body.
func (c *TargetClient) roundTrip(kind byte, body func(b []byte) []byte) ([]byte, error) {
	if err := c.flush(); err != nil {
		return nil, err
	}
	f, err := c.sendSeq(kind, body, false)
	if err != nil {
		return nil, err
	}
	for !f.done {
		if err := c.drainOne(); err != nil {
			return nil, err
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.body, nil
}

// --- register port ---------------------------------------------------

// clientPort projects one remote peripheral as a bus.Port. Writes are
// deferred into the batch queue (their errors surface at the next
// flush); reads coalesce into the flushed frame so a step's worth of
// bus traffic costs one round trip.
type clientPort struct {
	c   *TargetClient
	idx byte
}

var (
	_ bus.Port    = (*clientPort)(nil)
	_ bus.Flusher = (*clientPort)(nil)
)

func (p *clientPort) ReadReg(offset uint32) (uint32, error) {
	p.c.enqueue(batchOp{op: bRead, periph: p.idx, offset: offset})
	v, err := p.c.flushCapture(true)
	return uint32(v), err
}

func (p *clientPort) WriteReg(offset uint32, v uint32) error {
	p.c.enqueue(batchOp{op: bWrite, periph: p.idx, offset: offset, value: uint64(v)})
	if len(p.c.queue) >= maxBatch {
		// Ship the full batch without waiting: frames pipeline up to
		// maxInflight deep, so write bursts overlap link latency.
		return p.c.asyncFlush()
	}
	return nil
}

func (p *clientPort) IRQLevel() (bool, error) {
	c := p.c
	// A statically constant-low line needs no wire traffic at all —
	// not even a flush of queued work.
	if c.irqMask&(1<<uint(p.idx)) == 0 {
		return false, nil
	}
	if !c.mirrorsFresh() {
		if err := c.flush(); err != nil {
			return false, err
		}
	}
	if c.irqValid {
		return c.irqBits&(1<<uint(p.idx)) != 0, nil
	}
	c.enqueue(batchOp{op: bIRQ, periph: p.idx})
	v, err := c.flushCapture(true)
	return v != 0, err
}

// Flush implements bus.Flusher: the router's explicit barrier before
// final clock and statistics reads.
func (p *clientPort) Flush() error { return p.c.flush() }

// Port returns the bus.Port for a peripheral by name.
func (c *TargetClient) Port(name string) (bus.Port, error) {
	i, ok := c.pidx[name]
	if !ok {
		return nil, fmt.Errorf("remote: no peripheral %q on target %s", name, c.name)
	}
	return &clientPort{c: c, idx: byte(i)}, nil
}

// --- target.Interface ------------------------------------------------

// Name reports the remote target's name.
func (c *TargetClient) Name() string { return c.name }

// Kind reports the remote target's kind ("sim" or "fpga").
func (c *TargetClient) Kind() string { return c.kind }

// Clock returns the client-side mirror of the target's virtual clock.
func (c *TargetClient) Clock() *vtime.Clock { return c.clock }

// StateBits reports the architectural state size of the design.
func (c *TargetClient) StateBits() uint { return c.stateBits }

// Peripherals lists the remote peripheral names in index order.
func (c *TargetClient) Peripherals() []string {
	return append([]string(nil), c.periphs...)
}

// Stats fetches the remote counters; on a link failure the last
// mirrored values are returned (statistics are advisory).
func (c *TargetClient) Stats() target.Stats {
	body, err := c.roundTrip(kStats, nil)
	if err != nil {
		c.stashErr(err)
		return c.statsCache
	}
	if st, err := decodeStats(body); err == nil {
		c.statsCache = st
	}
	return c.statsCache
}

// Advance queues n hardware clock cycles; the advance crosses the
// wire inside the next flushed batch frame.
func (c *TargetClient) Advance(n uint64) error {
	// Adjacent advances coalesce into one op: with nothing queued
	// between them, no observer can distinguish Advance(a);Advance(b)
	// from Advance(a+b), so per-instruction clocking collapses into
	// one wire op per burst.
	if last := len(c.queue) - 1; last >= 0 && c.queue[last].op == bAdvance {
		c.queue[last].value += n
		return nil
	}
	c.enqueue(batchOp{op: bAdvance, value: n})
	if len(c.queue) >= maxBatch {
		return c.asyncFlush()
	}
	return nil
}

// Reset returns the remote design to its power-on state.
func (c *TargetClient) Reset() error {
	c.enqueue(batchOp{op: bReset})
	return c.flush()
}

// Ping verifies the link end to end through a batched echo.
func (c *TargetClient) Ping() error {
	c.enqueue(batchOp{op: bPing, value: pingMagic})
	v, err := c.flushCapture(true)
	if err != nil {
		return err
	}
	if v != pingMagic {
		return transientErr(fmt.Errorf("bad ping echo %#x", v))
	}
	return nil
}

// Generation mirrors the remote mutation generation.
func (c *TargetClient) Generation() uint64 {
	if !c.mirrorsFresh() {
		if err := c.flush(); err != nil {
			// Poisoning the generation makes every skip proof fail
			// until the link recovers, which is the safe direction.
			c.stashErr(err)
			c.genPoison++
		}
	}
	return c.gen + c.genPoison
}

// AnchorSeq mirrors the remote dirty-tracking anchor sequence.
func (c *TargetClient) AnchorSeq() uint64 {
	if !c.mirrorsFresh() {
		if err := c.flush(); err != nil {
			c.stashErr(err)
			return ^uint64(0)
		}
	}
	return c.anchorSeq
}

// TakeViolations drains accumulated hardware property violations.
// When the piggybacked pending count is zero — the overwhelmingly
// common case — no round trip happens.
func (c *TargetClient) TakeViolations() []target.Violation {
	// Without registered hardware assertions the target can never
	// produce a violation: answer locally, without even flushing.
	if !c.hasAssertions {
		return nil
	}
	if !c.mirrorsFresh() {
		if err := c.flush(); err != nil {
			c.stashErr(err)
			return nil
		}
	}
	if c.pending == 0 {
		return nil
	}
	body, err := c.roundTrip(kViolations, nil)
	if err != nil {
		c.stashErr(err)
		return nil
	}
	vs, err := decodeViolations(body)
	if err != nil {
		c.stashErr(transientErr(err))
		return nil
	}
	return vs
}

// --- snapshot transfer ----------------------------------------------

// Save captures the remote state. The server answers with content
// digests and inlines the chunks that were new to its cache; a chunk
// the client cache already holds moves zero state bytes, and only a
// chunk that is neither inlined nor cached costs a kFetch round trip.
func (c *TargetClient) Save() (target.State, error) {
	body, err := c.roundTrip(kSave, nil)
	if err != nil {
		return nil, err
	}
	refs, inline, err := decodeSaveOffer(body)
	if err != nil {
		return nil, transientErr(err)
	}
	// got maps the digests whose bytes cross the wire for this save to
	// their states; nil marks one already asked for.
	got := make(map[snapshot.Digest]*sim.HWState, len(inline))
	n, err := c.chunks.bank(inline, got, "inlined")
	c.wire.bytesReceived.Add(uint64(n))
	if err != nil {
		return nil, err
	}
	st := make(target.State, len(refs))
	var missing []snapshot.Digest
	var pending []int // entries of st waiting for a fetched chunk
	for i, e := range refs {
		st[i].Name = e.Name
		hw, ok := got[e.Digest]
		if !ok {
			if hw, ok = c.chunks.get(e.Digest); ok {
				c.wire.chunksSkipped.Add(1)
			} else {
				got[e.Digest] = nil
				missing = append(missing, e.Digest)
			}
		}
		if hw != nil {
			st[i].HW = *hw
		} else {
			pending = append(pending, i)
		}
	}
	if len(missing) > 0 {
		body, err := c.roundTrip(kFetch, func(b []byte) []byte { return appendDigests(b, missing) })
		if err != nil {
			return nil, err
		}
		chunks, err := decodeFetchResp(body)
		if err != nil {
			return nil, transientErr(err)
		}
		n, err := c.chunks.bank(chunks, got, "fetched")
		c.wire.bytesReceived.Add(uint64(n))
		if err != nil {
			return nil, err
		}
		for _, i := range pending {
			hw := got[refs[i].Digest]
			if hw == nil {
				return nil, integrityErr("server did not return chunk for %s", refs[i].Name)
			}
			st[i].HW = *hw
		}
	}
	// The server lists its peripherals in build order; a State holds
	// them in name order.
	sort.Slice(st, func(i, j int) bool { return st[i].Name < st[j].Name })
	return st, nil
}

// stateEntries names a state's chunks by content digest in a
// deterministic order, caching the chunks locally (the state is about
// to be live on both ends).
func (c *TargetClient) stateEntries(s target.State) ([]chunkRef, map[snapshot.Digest]*sim.HWState) {
	entries := make([]chunkRef, len(s))
	byDigest := make(map[snapshot.Digest]*sim.HWState, len(s))
	for i := range s {
		hw := &s[i].HW
		d := snapshot.HWDigest(hw)
		c.chunks.put(d, hw)
		byDigest[d] = hw
		entries[i] = chunkRef{Name: s[i].Name, Digest: d}
	}
	return entries, byDigest
}

// applyRemote drives the digest-negotiated restore conversation: the
// client offers the state by content address, the server lists the
// chunks it lacks, and only those cross the wire (none, when the
// server has seen the content before).
func (c *TargetClient) applyRemote(s target.State, mode byte) (restoreResp, error) {
	if err := c.flush(); err != nil {
		return restoreResp{}, err
	}
	entries, byDigest := c.stateEntries(s)
	body, err := c.roundTrip(kRestore, func(b []byte) []byte {
		return appendRefs(append(b, mode), entries)
	})
	if err != nil {
		return restoreResp{}, err
	}
	resp, err := decodeRestoreResp(body)
	if err != nil {
		return restoreResp{}, transientErr(err)
	}
	c.wire.chunksSkipped.Add(uint64(len(entries) - len(resp.Missing)))
	// Delta-upload loop: push what the server reported missing, then
	// re-check. One round suffices in the steady state, but a chunk
	// the server *claimed* to hold at kRestore time may be evicted
	// from its capped, session-shared cache before the push applies;
	// the next response re-lists it and we re-upload. The pushed set
	// is cumulative across rounds: chunks uploaded in one frame are
	// pinned server-side only for that frame, so under eviction
	// pressure the restore lands once a single frame carries every
	// chunk the cache cannot be trusted to keep — the cumulative set
	// grows monotonically toward that, bounded by the state itself.
	need := make(map[snapshot.Digest]bool)
	var push []snapshot.Digest
	for round := 0; len(resp.Missing) > 0; round++ {
		if round == maxPushRounds {
			return restoreResp{}, integrityErr("restore did not converge after %d push rounds (%d chunks still missing)",
				maxPushRounds, len(resp.Missing))
		}
		for _, d := range resp.Missing {
			if need[d] {
				continue
			}
			if _, ok := byDigest[d]; !ok {
				return restoreResp{}, integrityErr("server asked for unknown chunk %x", d[:8])
			}
			need[d] = true
			push = append(push, d)
		}
		var sent int
		body, err = c.roundTrip(kPush, func(b []byte) []byte {
			b = snapshot.AppendU32(appendRefs(append(b, mode), entries), len(push))
			for _, d := range push {
				var n int
				b, n = appendChunk(b, d, byDigest[d])
				sent += n
			}
			return b
		})
		if err != nil {
			return restoreResp{}, err
		}
		c.wire.bytesSent.Add(uint64(sent))
		if resp, err = decodeRestoreResp(body); err != nil {
			return restoreResp{}, transientErr(err)
		}
	}
	return resp, nil
}

// maxPushRounds bounds applyRemote's delta-upload loop against a
// pathological cache so small that uploads are evicted faster than
// the client can re-send them.
const maxPushRounds = 4

// Restore loads a full state into the remote hardware.
func (c *TargetClient) Restore(s target.State) error {
	resp, err := c.applyRemote(s, modeRestore)
	if err != nil {
		return err
	}
	if !resp.Applied {
		return integrityErr("server did not apply restore")
	}
	return nil
}

// RestoreDelta asks the server to serve the restore from its dirty
// tracking; (false, nil) means no incremental path existed and the
// caller falls back to Restore — which then moves zero bytes, since
// the negotiation just populated both chunk caches.
func (c *TargetClient) RestoreDelta(s target.State) (bool, error) {
	resp, err := c.applyRemote(s, modeDelta)
	if err != nil {
		return false, err
	}
	return resp.DidDelta, nil
}

// AdoptState rebases the remote target's power-on state (worker
// subtree adoption).
func (c *TargetClient) AdoptState(s target.State) error {
	resp, err := c.applyRemote(s, modeAdopt)
	if err != nil {
		return err
	}
	if !resp.Applied {
		return integrityErr("server did not adopt state")
	}
	return nil
}

// SpawnWorker clones the remote target server-side and connects a new
// client (over its own connection, so workers run concurrently) to
// the clone's session. Requires Dial.
func (c *TargetClient) SpawnWorker(name string, clock *vtime.Clock, _ int) (target.Interface, error) {
	if c.Dial == nil {
		return nil, fatalErr(errors.New("SpawnWorker requires a Dial function"))
	}
	body, err := c.roundTrip(kSpawn, func(b []byte) []byte { return snapshot.AppendName(b, name) })
	if err != nil {
		return nil, err
	}
	info, err := decodeHelloInfo(body)
	if err != nil {
		return nil, transientErr(err)
	}
	conn, err := c.Dial()
	if err != nil {
		return nil, transientErr(fmt.Errorf("spawn dial: %w", err))
	}
	if clock == nil {
		clock = &vtime.Clock{}
	}
	w := &TargetClient{
		conn:    conn,
		clock:   clock,
		Timeout: c.Timeout,
		Dial:    c.Dial,
		chunks:  c.chunks,
		wire:    c.wire,
	}
	winfo, err := w.handshake(kAttach, info.Token)
	if err != nil {
		return nil, err
	}
	w.applyInfo(winfo)
	return w, nil
}

// The client's halves of the wire and snapshot-body formats laid out
// in wire.go and codec.go: the server encodes what these decode and
// decodes what these encode.

// transportError marks errors from the conn itself (as opposed to
// protocol-level transient errors), so the retry loop knows when a
// redial is worthwhile.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// retryable reports whether a transaction failure is worth
// retransmitting: transport errors (timeouts, drops, broken links)
// and protocol-transient errors are; target-side fatal/integrity
// errors are not.
func retryable(err error) bool {
	var te *transportError
	if errors.As(err, &te) {
		return true
	}
	return target.Classify(err) == target.Transient
}

// writeFrame emits one v3 frame around a ready-made payload (the
// handshake and tests; sequenced traffic builds its frames in place).
func writeFrame(w io.Writer, kind byte, seq uint32, payload []byte) error {
	_, err := w.Write(endFrame(append(beginFrame(nil, kind, seq), payload...)))
	return err
}

// decodeMeta splits a response payload into its telemetry header
// and body.
func decodeMeta(p []byte) (respMeta, []byte, error) {
	if len(p) < respMetaLen {
		return respMeta{}, nil, fmt.Errorf("remote: short v3 response (%d bytes)", len(p))
	}
	return respMeta{
		status:    p[0],
		flags:     p[1],
		gen:       binary.LittleEndian.Uint64(p[2:10]),
		anchorSeq: binary.LittleEndian.Uint64(p[10:18]),
		serverNow: int64(binary.LittleEndian.Uint64(p[18:26])),
		cycles:    binary.LittleEndian.Uint64(p[26:34]),
		irqBits:   binary.LittleEndian.Uint64(p[34:42]),
		pending:   binary.LittleEndian.Uint32(p[42:46]),
	}, p[respMetaLen:], nil
}

// appendBatch packs ops as a kBatch payload:
// count(2) then per op: op(1) periph(1) offset(4) value(8).
func appendBatch(b []byte, ops []batchOp) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ops)))
	for _, op := range ops {
		b = append(b, op.op, op.periph)
		b = binary.LittleEndian.AppendUint32(b, op.offset)
		b = binary.LittleEndian.AppendUint64(b, op.value)
	}
	return b
}

// decodeSaveOffer reads a kSave response: the saved state by digest,
// plus the chunks the server inlined.
func decodeSaveOffer(p []byte) ([]chunkRef, []wireChunk, error) {
	r := snapshot.NewReader(p)
	refs, inline := readRefs(r), readChunks(r)
	return refs, inline, r.End()
}

func decodeFetchResp(p []byte) ([]wireChunk, error) {
	r := snapshot.NewReader(p)
	chunks := readChunks(r)
	return chunks, r.End()
}

func decodeRestoreResp(p []byte) (restoreResp, error) {
	r := snapshot.NewReader(p)
	flags := r.U8()
	resp := restoreResp{Applied: flags&1 != 0, DidDelta: flags&2 != 0, Missing: readDigests(r)}
	return resp, r.End()
}

// appendHello writes a kHello or kAttach body: this protocol's magic
// and, for kAttach, the session to resume.
func appendHello(b []byte, token uint32) []byte {
	return snapshot.AppendU32(snapshot.AppendU32(b, helloMagic), int(token))
}

func decodeHelloInfo(p []byte) (helloInfo, error) {
	r := snapshot.NewReader(p)
	h := helloInfo{Token: r.U32(), Kind: r.Name(), Name: r.Name(), StateBits: uint(r.U64()),
		Periphs: snapshot.List(r, 4, r.Name), LastApplied: r.U32(), IRQMask: r.U64(),
		HasAssertions: r.Flag("assertions flag")}
	return h, r.End()
}

func decodeStats(p []byte) (target.Stats, error) {
	r := snapshot.NewReader(p)
	st := target.Stats{Cycles: r.U64(), IOOps: r.U64(), Snapshots: r.U64(), Restores: r.U64(),
		SnapshotTime: time.Duration(r.U64()), SnapshotBytes: r.U64(), DeltaRestores: r.U64()}
	return st, r.End()
}

func decodeViolations(p []byte) ([]target.Violation, error) {
	r := snapshot.NewReader(p)
	vs := snapshot.List(r, 4*4+8, func() target.Violation {
		return target.Violation{Target: r.Name(), Periph: r.Name(), Name: r.Name(), Expr: r.Name(), Cycle: r.U64()}
	})
	return vs, r.End()
}
