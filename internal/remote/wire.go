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
// The snapshot frames cross the wire on every context switch, so their
// bodies are fixed layouts written and read in place (codec.go): every
// count and length is 32 bits and a name is len(4) bytes. A chunk's
// state bytes are the canonical peripheral-state encoding described in
// the internal/snapshot package comment.
//
//	ref:      name digest(32)
//	chunk:    digest(32) len(4) state[len]
//
//	kSave     request: empty
//	          response: nrefs(4) ref* nchunks(4) chunk*
//	kFetch    request: ndigests(4) digest(32)*
//	          response: nchunks(4) chunk*
//	kRestore  request: mode(1) nrefs(4) ref*
//	kPush     request: mode(1) nrefs(4) ref* nchunks(4) chunk*
//	          response to both: flags(1) nmissing(4) digest(32)*
//	          (flags bit 0 applied, bit 1 served as a delta)
//
// Inline on save: a kSave response carries the bytes of exactly those
// chunks the server's cache did not hold before this save. Content new
// to the server cannot be in any client's cache, so the kFetch that
// would follow is known in advance; kFetch remains for a client-side
// miss (an evicted chunk, or content another client saved first). A
// decoder checks every count against the bytes left before it sizes
// anything by it, rejects trailing bytes, and checks each chunk's bytes
// against the digest they travelled under. The frames a session sends
// once or a handful of times are written in the same idiom (codec.go);
// a string is a name, a flag one byte that is 0 or 1:
//
//	kHello    request: magic(4) token(4) (token 0)
//	kAttach   request: magic(4) token(4) (the session to resume)
//	kSpawn    request: name
//	          response to all three: token(4) kind name statebits(8)
//	          nperiphs(4) name* lastApplied(4) irqmask(8) assertions(1)
//	kStats    response: cycles(8) ioops(8) saves(8) restores(8)
//	          snaptime(8) snapbytes(8) deltarestores(8)
//	kViolations response: n(4) (target periph name expr cycle(8))*
//
// This is the third wire generation and the only one served. Its
// predecessor (one blocking 10-byte request / 6-byte response round
// trip per register operation) is deleted.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
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

// helloMagic identifies a v3 hello body ("HS3d": v3 with every body
// but kBatch's in the binary codec, chunks addressed by the SHA-256 of
// their state bytes). A peer built with gob session bodies sends "HS3c",
// one with the earlier digest function "HS3b", one from before the
// snapshot bodies left gob "HSR3"; each is refused at hello, not at its
// first session body or chunk digest check.
const helloMagic = 0x48533364

// errHdrCRC marks an unrecoverable header corruption: the stream is
// desynchronized and the connection must be abandoned.
var errHdrCRC = errors.New("remote: corrupted v3 frame header (bad CRC)")

// errPayloadCRC marks a recoverable payload corruption: framing
// survived, so the server stays in sync and rejects just this frame.
var errPayloadCRC = errors.New("remote: corrupted v3 frame payload (bad CRC)")

// beginFrame starts a frame in buf's storage: the header, length and
// CRC still blank. The caller appends the payload in place and seals
// it with endFrame, so a frame is assembled once, in the buffer it is
// written (and retransmitted) from.
func beginFrame(buf []byte, kind byte, seq uint32) []byte {
	buf = append(buf[:0], kind, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[1:5], seq)
	return buf
}

// endFrame fills in the payload length, header CRC-8 and payload CRC-32.
func endFrame(buf []byte) []byte {
	payload := buf[v3HdrLen:]
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(payload)))
	buf[9] = crc8(buf[:9])
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
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

// append adds the telemetry header to a frame under construction.
func (m *respMeta) append(b []byte) []byte {
	b = append(b, m.status, m.flags)
	b = binary.LittleEndian.AppendUint64(b, m.gen)
	b = binary.LittleEndian.AppendUint64(b, m.anchorSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.serverNow))
	b = binary.LittleEndian.AppendUint64(b, m.cycles)
	b = binary.LittleEndian.AppendUint64(b, m.irqBits)
	return binary.LittleEndian.AppendUint32(b, m.pending)
}

// batchOp is one vectored register operation.
type batchOp struct {
	op     byte
	periph byte
	offset uint32
	value  uint64
}

// batchCount checks the framing of a batch body — count(2), then count
// entries of size bytes each — and returns the count; entry i starts at
// p[2+i*size].
func batchCount(p []byte, size int) (int, error) {
	if len(p) < 2 {
		return 0, fmt.Errorf("remote: short batch body")
	}
	n := int(binary.LittleEndian.Uint16(p[0:2]))
	if len(p) != 2+n*size {
		return 0, fmt.Errorf("remote: batch body length %d does not match %d entries", len(p), n)
	}
	return n, nil
}

// Per-op result statuses in a batch response body (count(2), then per
// op status(1) value(8)). Values 1..3 carry
// a target.ErrorClass; opSkipped marks ops after the first failure.
const (
	opStatusOK = 0
	opSkipped  = 0xFF
	// batchResultLen is the wire size of one result: status(1) value(8).
	batchResultLen = 9
)
