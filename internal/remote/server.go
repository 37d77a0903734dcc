package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hardsnap/internal/bus"
	"hardsnap/internal/sim"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// respCacheCap bounds the per-session retransmission response cache.
// It only needs to cover the client's pipelining window; 64 leaves
// generous slack.
const respCacheCap = 64

// session is one client's binding to a target: the root target for
// the primary client, or a spawned worker clone. Sessions are keyed
// by token independently of connections, so a client that redials
// after a link failure re-attaches (kAttach) and keeps its duplicate
// suppression: lastApplied and the response cache guarantee a
// retransmitted frame is applied exactly once, with the original
// response replayed for frames whose response was lost in flight.
type session struct {
	mu      sync.Mutex
	tgt     *target.Target
	periphs []string
	ports   []bus.Port

	lastApplied uint32
	respCache   map[uint32][]byte
	respOrder   []uint32
}

// Server speaks protocol v3 against a hosted target. It is safe for
// concurrent connections: each worker client spawned over the wire
// gets its own session and target clone, and the peripheral-chunk
// cache shared across sessions is what makes digest negotiation
// effective — a chunk any session has seen never crosses the wire
// again.
type Server struct {
	root *target.Target

	mu       sync.Mutex
	sessions map[uint32]*session
	nextTok  uint32

	chunks *chunkLRU

	// testBeforePush, when set (tests only), runs in the kPush
	// dispatch path — the window where a concurrent eviction races an
	// in-flight digest negotiation.
	testBeforePush func()
}

// NewServer hosts a target behind protocol v3.
func NewServer(root *target.Target) *Server {
	return &Server{
		root:     root,
		sessions: make(map[uint32]*session),
		chunks:   newChunkLRU(DefaultChunkCap),
	}
}

func (s *Server) newSession(tgt *target.Target) (uint32, *session) {
	sess := &session{
		tgt:       tgt,
		periphs:   tgt.Peripherals(),
		respCache: make(map[uint32][]byte),
	}
	for _, name := range sess.periphs {
		port, err := tgt.Port(name)
		if err != nil {
			// Unreachable: names come from the target itself.
			panic(fmt.Sprintf("remote: server session: %v", err))
		}
		sess.ports = append(sess.ports, port)
	}
	s.mu.Lock()
	s.nextTok++
	tok := s.nextTok
	s.sessions[tok] = sess
	s.mu.Unlock()
	return tok, sess
}

// meta snapshots the session target's piggyback telemetry. sampleIRQ
// additionally re-samples every interrupt line (batch responses only;
// control responses leave the client's IRQ mirror invalidated).
func (sess *session) meta(status byte, sampleIRQ bool) (respMeta, error) {
	m := respMeta{
		status:    status,
		gen:       sess.tgt.Generation(),
		anchorSeq: sess.tgt.AnchorSeq(),
		serverNow: int64(sess.tgt.Clock().Now()),
		cycles:    sess.tgt.Stats().Cycles,
		pending:   uint32(sess.tgt.PendingViolations()),
	}
	if sampleIRQ {
		for i, port := range sess.ports {
			level, err := port.IRQLevel()
			if err != nil {
				return m, err
			}
			if level {
				m.irqBits |= 1 << uint(i)
			}
		}
		m.flags |= 1
	}
	return m, nil
}

// respFrame starts the response frame to request seq, header and
// telemetry, in a fresh buffer sized for a body of about bodyLen bytes.
// The handler appends its body and seals the frame; the sealed bytes are
// what is written and what the retransmission cache keeps.
func (sess *session) respFrame(seq uint32, status byte, bodyLen int) []byte {
	m, _ := sess.meta(status, false) // cannot fail without IRQ sampling
	return m.append(beginFrame(make([]byte, 0, v3HdrLen+respMetaLen+bodyLen+v3TrailerLen), kResp, seq))
}

// errFrame builds a vstatusErr response: meta + class(1) + message.
func (sess *session) errFrame(seq uint32, err error) []byte {
	msg := err.Error()
	b := append(sess.respFrame(seq, vstatusErr, 1+len(msg)), byte(target.Classify(err)))
	return endFrame(append(b, msg...))
}

// helloFrame answers kHello/kAttach/kSpawn with session info.
func (s *Server) helloFrame(seq, tok uint32, sess *session) []byte {
	var irqMask uint64
	for i, name := range sess.periphs {
		if i < 64 && sess.tgt.IRQWired(name) {
			irqMask |= 1 << uint(i)
		}
	}
	return endFrame(appendHelloInfo(sess.respFrame(seq, vstatusOK, 128), helloInfo{
		Token:         tok,
		Kind:          sess.tgt.Kind(),
		Name:          sess.tgt.Name(),
		StateBits:     sess.tgt.StateBits(),
		Periphs:       sess.periphs,
		LastApplied:   sess.lastApplied,
		IRQMask:       irqMask,
		HasAssertions: sess.tgt.HasAssertions(),
	}))
}

// apply executes one sequenced v3 frame against the session and
// returns the sealed response frame. The caller holds sess.mu and has
// already done duplicate suppression.
func (s *Server) apply(sess *session, kind byte, seq uint32, payload []byte) []byte {
	switch kind {
	case kBatch:
		return s.applyBatch(sess, seq, payload)
	case kSave:
		return s.applySave(sess, seq)
	case kFetch:
		return s.applyFetch(sess, seq, payload)
	case kRestore, kPush:
		mode, refs, chunks, err := decodeRestoreReq(payload, kind == kPush)
		if err != nil {
			return sess.errFrame(seq, fatalErr(err))
		}
		if kind == kPush && s.testBeforePush != nil {
			s.testBeforePush()
		}
		return s.applyRestore(sess, seq, mode, refs, chunks)
	case kSpawn:
		return s.applySpawn(sess, seq, payload)
	case kStats:
		return endFrame(appendStats(sess.respFrame(seq, vstatusOK, 7*8), sess.tgt.Stats()))
	case kViolations:
		return endFrame(appendViolations(sess.respFrame(seq, vstatusOK, 64), sess.tgt.TakeViolations()))
	default:
		return sess.errFrame(seq, fatalErr(fmt.Errorf("unknown v3 frame kind %#x", kind)))
	}
}

// The wire's typed errors, by class.
func fatalErr(err error) error {
	return &target.Error{Class: target.Fatal, Op: "remote", Err: err}
}

func transientErr(err error) error {
	return &target.Error{Class: target.Transient, Op: "remote", Err: err}
}

func integrityErr(format string, args ...any) error {
	return &target.Error{Class: target.Integrity, Op: "remote", Err: fmt.Errorf(format, args...)}
}

func (s *Server) applyBatch(sess *session, seq uint32, payload []byte) []byte {
	n, err := batchCount(payload, batchOpLen)
	if err != nil {
		return sess.errFrame(seq, fatalErr(err))
	}
	res := binary.LittleEndian.AppendUint16(make([]byte, 0, 2+batchResultLen*n), uint16(n))
	failed := false
	for p := payload[2:]; len(p) > 0; p = p[batchOpLen:] {
		op := batchOp{op: p[0], periph: p[1], offset: binary.LittleEndian.Uint32(p[2:6]), value: binary.LittleEndian.Uint64(p[6:14])}
		if failed {
			res = binary.LittleEndian.AppendUint64(append(res, opSkipped), 0)
			continue
		}
		var value uint64
		var opErr error
		switch op.op {
		case bRead, bWrite, bIRQ:
			if int(op.periph) >= len(sess.ports) {
				opErr = fatalErr(fmt.Errorf("no peripheral index %d", op.periph))
				break
			}
			port := sess.ports[op.periph]
			switch op.op {
			case bRead:
				var v uint32
				v, opErr = port.ReadReg(op.offset)
				value = uint64(v)
			case bWrite:
				opErr = port.WriteReg(op.offset, uint32(op.value))
			case bIRQ:
				var level bool
				level, opErr = port.IRQLevel()
				if level {
					value = 1
				}
			}
		case bAdvance:
			opErr = sess.tgt.Advance(op.value)
		case bPing:
			value = op.value
		case bReset:
			opErr = sess.tgt.Reset()
		default:
			opErr = fatalErr(fmt.Errorf("unknown batch op %d", op.op))
		}
		status := byte(opStatusOK)
		if opErr != nil {
			status = byte(target.Classify(opErr))
			failed = true
		}
		res = binary.LittleEndian.AppendUint64(append(res, status), value)
	}
	m, err := sess.meta(vstatusOK, true)
	if err != nil {
		return sess.errFrame(seq, err)
	}
	b := beginFrame(make([]byte, 0, v3HdrLen+respMetaLen+len(res)+v3TrailerLen), kResp, seq)
	return endFrame(append(m.append(b), res...))
}

// applySave saves the session target's state and answers with the
// per-peripheral content digests, inlining the chunks this save made
// resident (no client can hold them yet); everything else stays
// server-side unless the client asks (kFetch).
func (s *Server) applySave(sess *session, seq uint32) []byte {
	st, err := sess.tgt.Save()
	if err != nil {
		return sess.errFrame(seq, err)
	}
	refs := make([]chunkRef, len(sess.periphs))
	var fresh []int // indices into refs of the chunks new to the cache
	for i, name := range sess.periphs {
		hw := st.Get(name)
		refs[i] = chunkRef{Name: name, Digest: snapshot.HWDigest(hw)}
		if hw != nil && s.chunks.put(refs[i].Digest, hw) {
			fresh = append(fresh, i)
		}
	}
	b := appendRefs(sess.respFrame(seq, vstatusOK, 64*len(refs)+256*len(fresh)), refs)
	b = snapshot.AppendU32(b, len(fresh))
	for _, i := range fresh {
		b, _ = appendChunk(b, refs[i].Digest, st.Get(refs[i].Name))
	}
	return endFrame(b)
}

func (s *Server) applyFetch(sess *session, seq uint32, payload []byte) []byte {
	digests, err := decodeFetchReq(payload)
	if err != nil {
		return sess.errFrame(seq, fatalErr(err))
	}
	b := snapshot.AppendU32(sess.respFrame(seq, vstatusOK, 256*len(digests)), len(digests))
	for _, d := range digests {
		hw, ok := s.chunks.get(d)
		if !ok {
			return sess.errFrame(seq, integrityErr("fetch of unknown chunk %x", d[:8]))
		}
		b, _ = appendChunk(b, d, hw)
	}
	return endFrame(b)
}

// applyRestore handles kRestore (chunks nil) and kPush: it banks any
// uploaded chunks, then either reports the digests still missing or —
// when every named chunk is resident — assembles the state and
// applies it in the requested mode.
func (s *Server) applyRestore(sess *session, seq uint32, mode byte, refs []chunkRef, chunks []wireChunk) []byte {
	// pinned holds this frame's uploads for the assembly below, so a
	// concurrent eviction (another session pushing past the cap)
	// cannot unbank a chunk between its arrival and its use. Chunks
	// the server merely *claimed* to hold at kRestore time can still
	// be evicted mid-negotiation; those come back in Missing and the
	// client re-uploads them next round.
	pinned := make(map[snapshot.Digest]*sim.HWState, len(chunks))
	if _, err := s.chunks.bank(chunks, pinned, "pushed"); err != nil {
		return sess.errFrame(seq, err)
	}
	st := make(target.State, len(refs))
	var resp restoreResp
	for i, e := range refs {
		hw, ok := pinned[e.Digest]
		if !ok {
			hw, ok = s.chunks.get(e.Digest)
		}
		if !ok {
			resp.Missing = append(resp.Missing, e.Digest)
			continue
		}
		st[i] = target.PeriphState{Name: e.Name, HW: *hw}
	}
	if len(resp.Missing) == 0 {
		resp.Applied = true
		var err error
		switch mode {
		case modeRestore:
			err = sess.tgt.Restore(st)
		case modeDelta:
			resp.DidDelta, err = sess.tgt.RestoreDelta(st)
			resp.Applied = resp.DidDelta
		case modeAdopt:
			err = sess.tgt.AdoptState(st)
		default:
			err = fatalErr(fmt.Errorf("unknown restore mode %d", mode))
		}
		if err != nil {
			return sess.errFrame(seq, err)
		}
	}
	return endFrame(appendRestoreResp(sess.respFrame(seq, vstatusOK, 5+digestLen*len(resp.Missing)), resp))
}

func (s *Server) applySpawn(sess *session, seq uint32, payload []byte) []byte {
	r := snapshot.NewReader(payload)
	name := r.Name()
	if err := r.End(); err != nil {
		return sess.errFrame(seq, fatalErr(err))
	}
	nt, err := sess.tgt.Spawn(name, &vtime.Clock{})
	if err != nil {
		return sess.errFrame(seq, err)
	}
	tok, nsess := s.newSession(nt)
	return s.helloFrame(seq, tok, nsess)
}

// ServeConn answers protocol frames on one connection until it
// closes. The first frame must be kHello (new session on the root
// target) or kAttach (resume after redial). A clean close between
// frames returns nil; truncation mid-frame or header corruption — the
// stream is desynchronized, before a hello as much as after one — is a
// real error and ends the connection.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	var sess *session
	for {
		kind, seq, payload, err := readFrame(conn)
		var resp []byte // the sealed response frame
		switch {
		case err == nil:
		case errors.Is(err, errPayloadCRC):
			// Framing survived: stay in sync, reject the frame as a
			// unit so the client retransmits it as a unit.
			if sess != nil {
				// The session may already be live on a newer
				// connection (the client redialed while this one still
				// had frames buffered), so its target is read under the
				// session lock like everywhere else.
				sess.mu.Lock()
				resp = endFrame(sess.respFrame(seq, vstatusBadFrame, 0))
				sess.mu.Unlock()
			} else {
				m := respMeta{status: vstatusBadFrame}
				resp = endFrame(m.append(beginFrame(nil, kResp, seq)))
			}
		case errors.Is(err, errHdrCRC):
			return err
		case err == io.EOF:
			return nil
		case err == io.ErrUnexpectedEOF:
			return fmt.Errorf("remote: truncated v3 frame: %w", err)
		case errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe):
			return nil
		default:
			return fmt.Errorf("remote: read frame: %w", err)
		}

		switch {
		case resp != nil: // rejected above
		case kind == kHello || kind == kAttach:
			token, derr := decodeHello(payload)
			if derr != nil {
				return fmt.Errorf("remote: bad hello frame")
			}
			if kind == kHello {
				tok, ns := s.newSession(s.root)
				sess = ns
				resp = s.helloFrame(seq, tok, sess)
			} else {
				s.mu.Lock()
				ns, ok := s.sessions[token]
				s.mu.Unlock()
				if !ok {
					return fmt.Errorf("remote: attach to unknown session %d", token)
				}
				sess = ns
				sess.mu.Lock()
				resp = s.helloFrame(seq, token, sess)
				sess.mu.Unlock()
			}
		case sess == nil:
			return fmt.Errorf("remote: v3 frame %#x before hello", kind)
		default:
			sess.mu.Lock()
			switch {
			case seq <= sess.lastApplied:
				// Duplicate of an applied frame (the client never saw
				// the response): replay the cached response so the
				// frame is applied exactly once.
				if cached, ok := sess.respCache[seq]; ok {
					resp = cached
				} else {
					resp = endFrame(sess.respFrame(seq, vstatusOutOfOrder, 0))
				}
			case seq != sess.lastApplied+1:
				// A predecessor was lost: refuse, client goes back.
				resp = endFrame(sess.respFrame(seq, vstatusOutOfOrder, 0))
			default:
				resp = s.apply(sess, kind, seq, payload)
				sess.lastApplied = seq
				sess.respCache[seq] = resp
				sess.respOrder = append(sess.respOrder, seq)
				if len(sess.respOrder) > respCacheCap {
					delete(sess.respCache, sess.respOrder[0])
					sess.respOrder = sess.respOrder[1:]
				}
			}
			sess.mu.Unlock()
		}
		if _, err := conn.Write(resp); err != nil {
			return fmt.Errorf("remote: write response: %w", err)
		}
	}
}

// ListenAndServe accepts connections and serves each in its own
// goroutine (spawned worker clients need concurrent sessions). It
// returns when the listener closes, with per-connection failures
// joined.
func (s *Server) ListenAndServe(ln net.Listener) error {
	return s.ListenAndServeWith(ln, nil)
}

// ListenAndServeWith is ListenAndServe with a connection wrapper
// (fault injection, latency injection) applied to every accepted
// connection.
func (s *Server) ListenAndServeWith(ln net.Listener, wrap func(net.Conn) net.Conn) error {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	open := make(map[net.Conn]struct{})
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Listener is gone: shut down the live connections so the
			// per-connection goroutines drain instead of blocking on
			// reads forever.
			mu.Lock()
			for c := range open {
				_ = c.Close()
			}
			mu.Unlock()
			wg.Wait()
			mu.Lock()
			defer mu.Unlock()
			if !errors.Is(err, net.ErrClosed) {
				errs = append(errs, fmt.Errorf("remote: accept: %w", err))
			}
			return errors.Join(errs...)
		}
		served := net.Conn(conn)
		if wrap != nil {
			served = wrap(conn)
		}
		mu.Lock()
		open[served] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn, served net.Conn) {
			defer wg.Done()
			if err := s.ServeConn(served); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("remote: conn %s: %w", conn.RemoteAddr(), err))
				mu.Unlock()
			}
			_ = served.Close()
			mu.Lock()
			delete(open, served)
			mu.Unlock()
		}(conn, served)
	}
}
