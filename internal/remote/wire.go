// Package remote implements the remote interface through which the
// symbolic virtual machine reaches out-of-process hardware targets. In
// the paper this role is played by a shared-memory channel (simulator
// target) and a USB 3.0 low-latency debugger (FPGA target); here any
// net.Conn works, including net.Pipe for in-process use and TCP
// sockets for genuine out-of-process targets.
//
// The protocol moves batched, pipelined *frames* with wire-level
// snapshot transfer: one CRC-framed request carries a whole vector of
// register ops plus the clock advance of an engine step, and one
// response frame carries every result plus piggybacked target
// telemetry (mutation generation, anchor sequence, virtual clock, IRQ
// levels, pending violation count), so the common scheduling loop
// costs one round trip. Sequence numbers let the client keep several
// frames in flight over a high-latency link (go-back-N retransmission,
// server-side duplicate suppression with a response cache), and
// snapshot opcodes move Save/Restore/RestoreDelta state as digest-
// negotiated, length-prefixed, checksummed peripheral chunks: the
// sender offers sha256 content addresses first and only the chunks the
// receiver does not already hold cross the wire.
//
// Frame layout (all integers little-endian):
//
//	frame:    kind(1) seq(4) len(4) hcrc(1) payload[len] pcrc(4)
//
// hcrc is a CRC-8 over the first 9 header bytes; a header that fails
// it desynchronizes the stream and closes the connection (the client
// recovers by redialing and re-attaching its session). pcrc is a
// CRC-32 (IEEE) over the payload; a payload that fails it is answered
// with vstatusBadFrame and the frame — never partially applied — is
// retransmitted as a unit.
//
// This is the third wire generation and the only one served. Its
// predecessor (one blocking 10-byte request / 6-byte response round
// trip per register operation) was deleted in PR 12; the numbers it
// produced survive as recorded constants in experiment E12.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"hardsnap/internal/target"
)

// crc8 folds an IEEE CRC-32 into one byte: enough to catch the
// single-bit and burst corruption a flaky link produces.
func crc8(b []byte) byte {
	s := crc32.ChecksumIEEE(b)
	return byte(s) ^ byte(s>>8) ^ byte(s>>16) ^ byte(s>>24)
}

// deadliner is the deadline surface of net.Conn; the client uses it
// when the transport provides it.
type deadliner interface {
	SetDeadline(t time.Time) error
}

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
	return target.IsTransient(err)
}

// errorClass maps a target-side operation error onto the wire.
func errorClass(err error) target.ErrorClass {
	var te *target.Error
	if errors.As(err, &te) {
		return te.Class
	}
	return target.Fatal
}

// pingMagic is the echo payload of a bPing op ("HSRP").
const pingMagic = 0x48535250

// v3 frame kinds.
const (
	kHello      = 0x10 // establish a new session on the root target
	kAttach     = 0x11 // re-attach an existing session after a redial
	kBatch      = 0x12 // vectored register ops + advance
	kSave       = 0x13 // snapshot save: returns per-peripheral digests
	kFetch      = 0x14 // fetch peripheral chunks by digest
	kRestore    = 0x15 // snapshot restore/delta/adopt offer by digest
	kPush       = 0x16 // push peripheral chunks (and optionally apply)
	kSpawn      = 0x17 // spawn a worker target, returns a new session
	kStats      = 0x18 // fetch cumulative target counters
	kViolations = 0x19 // drain accumulated hardware violations
	kResp       = 0x1F // server -> client response frame
)

// Batched register operations (kBatch payload entries).
const (
	bRead    = 1
	bWrite   = 2
	bIRQ     = 3
	bAdvance = 4
	bPing    = 5
	bReset   = 6
)

// v3 response statuses (respMeta.status).
const (
	vstatusOK = iota
	// vstatusErr carries a target-side error: body is class(1) msg.
	vstatusErr
	// vstatusBadFrame rejects a request whose payload CRC failed; the
	// frame was not applied and must be retransmitted as a unit.
	vstatusBadFrame
	// vstatusOutOfOrder rejects a sequence number beyond
	// lastApplied+1 (a predecessor frame was lost); the client goes
	// back and retransmits from the first unacknowledged frame.
	vstatusOutOfOrder
)

const (
	v3HdrLen     = 10
	v3TrailerLen = 4
	// v3MaxPayload bounds a frame so a corrupted length field cannot
	// make the peer allocate unbounded memory.
	v3MaxPayload = 1 << 24
	// batchOpLen is the wire size of one kBatch entry:
	// op(1) periph(1) offset(4) value(8).
	batchOpLen = 14
)

// helloMagic identifies a v3 hello payload ("HSR3").
const helloMagic = 0x48535233

// errHdrCRC marks an unrecoverable header corruption: the stream is
// desynchronized and the connection must be abandoned.
var errHdrCRC = errors.New("remote: corrupted v3 frame header (bad CRC)")

// errPayloadCRC marks a recoverable payload corruption: framing
// survived, so the server stays in sync and rejects just this frame.
var errPayloadCRC = errors.New("remote: corrupted v3 frame payload (bad CRC)")

// writeFrame emits one v3 frame.
func writeFrame(w io.Writer, kind byte, seq uint32, payload []byte) error {
	buf := make([]byte, v3HdrLen+len(payload)+v3TrailerLen)
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:5], seq)
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	buf[9] = crc8(buf[:9])
	copy(buf[v3HdrLen:], payload)
	binary.LittleEndian.PutUint32(buf[v3HdrLen+len(payload):], crc32.ChecksumIEEE(payload))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one whole v3 frame. It returns the kind, sequence
// number and payload; errPayloadCRC means the frame was framed
// correctly but its payload is corrupt (seq is valid and the stream is
// still in sync), errHdrCRC means the stream is lost. io.EOF is
// returned only when the stream ends cleanly between frames.
func readFrame(r io.Reader) (kind byte, seq uint32, payload []byte, err error) {
	var hdr [v3HdrLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if crc8(hdr[:9]) != hdr[9] {
		return 0, 0, nil, errHdrCRC
	}
	kind = hdr[0]
	seq = binary.LittleEndian.Uint32(hdr[1:5])
	n := binary.LittleEndian.Uint32(hdr[5:9])
	if n > v3MaxPayload {
		return 0, 0, nil, fmt.Errorf("remote: oversized v3 frame (%d bytes)", n)
	}
	body := make([]byte, int(n)+v3TrailerLen)
	if _, err = io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[n:]) {
		return kind, seq, nil, errPayloadCRC
	}
	return kind, seq, payload, nil
}

// respMeta is the telemetry header piggybacked on every response
// frame. It is what keeps a scheduling step at one round trip: after
// any flush the client answers Generation, AnchorSeq, IRQ sampling,
// violation checks and virtual-clock reads from this mirror instead
// of issuing dedicated requests.
type respMeta struct {
	status byte
	// flags bit 0: irqBits below are valid (set on batch responses,
	// where the server re-sampled every interrupt line).
	flags     byte
	gen       uint64
	anchorSeq uint64
	// serverNow is the session target's virtual clock, nanoseconds.
	serverNow int64
	cycles    uint64
	// irqBits holds one interrupt level per peripheral index.
	irqBits uint64
	// pending is the count of accumulated, undrained violations.
	pending uint32
}

const respMetaLen = 1 + 1 + 8 + 8 + 8 + 8 + 8 + 4

func (m *respMeta) encode(body []byte) []byte {
	out := make([]byte, respMetaLen+len(body))
	out[0] = m.status
	out[1] = m.flags
	binary.LittleEndian.PutUint64(out[2:10], m.gen)
	binary.LittleEndian.PutUint64(out[10:18], m.anchorSeq)
	binary.LittleEndian.PutUint64(out[18:26], uint64(m.serverNow))
	binary.LittleEndian.PutUint64(out[26:34], m.cycles)
	binary.LittleEndian.PutUint64(out[34:42], m.irqBits)
	binary.LittleEndian.PutUint32(out[42:46], m.pending)
	copy(out[respMetaLen:], body)
	return out
}

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

// batchOp is one vectored register operation.
type batchOp struct {
	op     byte
	periph byte
	offset uint32
	value  uint64
}

// encodeBatch packs ops into a kBatch payload:
// count(2) then per op: op(1) periph(1) offset(4) value(8).
func encodeBatch(ops []batchOp) []byte {
	out := make([]byte, 2+len(ops)*batchOpLen)
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(ops)))
	off := 2
	for _, op := range ops {
		out[off] = op.op
		out[off+1] = op.periph
		binary.LittleEndian.PutUint32(out[off+2:off+6], op.offset)
		binary.LittleEndian.PutUint64(out[off+6:off+14], op.value)
		off += batchOpLen
	}
	return out
}

func decodeBatch(p []byte) ([]batchOp, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("remote: short batch payload")
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+n*batchOpLen {
		return nil, fmt.Errorf("remote: batch payload length %d does not match %d ops", len(p), n)
	}
	ops := make([]batchOp, n)
	off := 2
	for i := range ops {
		ops[i] = batchOp{
			op:     p[off],
			periph: p[off+1],
			offset: binary.LittleEndian.Uint32(p[off+2 : off+6]),
			value:  binary.LittleEndian.Uint64(p[off+6 : off+14]),
		}
		off += batchOpLen
	}
	return ops, nil
}

// Per-op result statuses in a batch response body. Values 1..3 carry
// a target.ErrorClass; opSkipped marks ops after the first failure.
const (
	opStatusOK = 0
	opSkipped  = 0xFF
)

// encodeBatchResults packs per-op results: count(2) then per op:
// status(1) value(8).
func encodeBatchResults(status []byte, values []uint64) []byte {
	out := make([]byte, 2+len(status)*9)
	binary.LittleEndian.PutUint16(out[0:2], uint16(len(status)))
	off := 2
	for i := range status {
		out[off] = status[i]
		binary.LittleEndian.PutUint64(out[off+1:off+9], values[i])
		off += 9
	}
	return out
}

func decodeBatchResults(p []byte) (status []byte, values []uint64, err error) {
	if len(p) < 2 {
		return nil, nil, fmt.Errorf("remote: short batch result")
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+n*9 {
		return nil, nil, fmt.Errorf("remote: batch result length %d does not match %d ops", len(p), n)
	}
	status = make([]byte, n)
	values = make([]uint64, n)
	off := 2
	for i := 0; i < n; i++ {
		status[i] = p[off]
		values[i] = binary.LittleEndian.Uint64(p[off+1 : off+9])
		off += 9
	}
	return status, values, nil
}

// --- gob-framed control payloads -----------------------------------
//
// Control frames (session setup, snapshot negotiation, stats,
// violations) are rare relative to batch frames; their payloads are
// gob-encoded structs under the same CRC framing.

// helloReq opens (kHello) or resumes (kAttach) a session.
type helloReq struct {
	Magic uint32
	Token uint32 // kAttach: the session to resume
}

// helloInfo describes the session's target.
type helloInfo struct {
	Token       uint32
	Kind        string
	Name        string
	StateBits   uint
	Periphs     []string
	LastApplied uint32
	// IRQMask has bit i set iff peripheral i can ever drive its
	// interrupt line. Clients answer IRQ polls for cleared bits
	// locally (the line is statically constant-low), with no wire
	// traffic.
	IRQMask uint64
	// HasAssertions reports whether the target carries hardware
	// assertions; without them it can never produce violations, so
	// clients answer TakeViolations locally.
	HasAssertions bool
}

// chunkRef names one peripheral's state by content address.
type chunkRef struct {
	Name   string
	Digest [32]byte
}

// wireChunk carries one peripheral state chunk. Data is the gob
// encoding of the *sim.HWState (length-prefixed by the gob slice
// encoding, checksummed by the frame CRC).
type wireChunk struct {
	Digest [32]byte
	Data   []byte
}

// saveOffer is the kSave response: the digests of the freshly saved
// state, for the client to fetch only what it lacks.
type saveOffer struct {
	Entries []chunkRef
}

// fetchReq asks for chunks by digest; fetchResp returns them.
type fetchReq struct {
	Digests [][32]byte
}
type fetchResp struct {
	Chunks []wireChunk
}

// Restore modes.
const (
	modeRestore = 0
	modeDelta   = 1
	modeAdopt   = 2
)

// restoreReq offers a state to restore by digest; the server lists
// the chunks it lacks, or applies directly when it holds everything.
type restoreReq struct {
	Mode    byte
	Entries []chunkRef
}

// pushReq is a restoreReq that also uploads the chunks the server
// reported missing.
type pushReq struct {
	Mode    byte
	Entries []chunkRef
	Chunks  []wireChunk
}

// restoreResp answers kRestore and kPush.
type restoreResp struct {
	// Missing lists digests the server lacks; the client must push
	// them. Empty when Applied.
	Missing [][32]byte
	// Applied reports the state reached the hardware.
	Applied bool
	// DidDelta reports the incremental dirty-only path served it.
	DidDelta bool
}

// spawnReq asks the session's target for a worker clone; the response
// is a helloInfo for the new session.
type spawnReq struct {
	Name   string
	Stream int
}

// --- latency injection ---------------------------------------------

// latencyConn delays every Write by a fixed one-way latency without
// blocking the writer: writes are timestamped into a queue and a pump
// goroutine delivers them in order when due. This models link
// *latency* (the quantity pipelining hides), not throughput; wrapping
// both endpoints of a connection with delay d gives a round-trip time
// of 2d.
type latencyConn struct {
	net.Conn
	delay time.Duration
	ch    chan delayed
	wg    sync.WaitGroup
	mu    sync.Mutex
	werr  error
	open  bool
}

type delayed struct {
	data []byte
	due  time.Time
}

// NewLatencyConn wraps a connection so each Write is delivered after
// the given one-way delay. The bench harness uses it to reproduce the
// paper's USB-debugger link latency on an in-process socket.
func NewLatencyConn(c net.Conn, delay time.Duration) net.Conn {
	if delay <= 0 {
		return c
	}
	l := &latencyConn{Conn: c, delay: delay, ch: make(chan delayed, 1024), open: true}
	l.wg.Add(1)
	go l.pump()
	return l
}

func (l *latencyConn) pump() {
	defer l.wg.Done()
	for d := range l.ch {
		if wait := time.Until(d.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := l.Conn.Write(d.data); err != nil {
			l.mu.Lock()
			if l.werr == nil {
				l.werr = err
			}
			l.mu.Unlock()
		}
	}
}

func (l *latencyConn) Write(p []byte) (int, error) {
	l.mu.Lock()
	if !l.open {
		l.mu.Unlock()
		return 0, net.ErrClosed
	}
	if err := l.werr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Unlock()
	buf := append([]byte(nil), p...)
	l.ch <- delayed{data: buf, due: time.Now().Add(l.delay)}
	return len(p), nil
}

func (l *latencyConn) Close() error {
	l.mu.Lock()
	if !l.open {
		l.mu.Unlock()
		return nil
	}
	l.open = false
	l.mu.Unlock()
	close(l.ch)
	l.wg.Wait() // deliver queued writes before closing the stream
	return l.Conn.Close()
}
