package remote

import (
	"bytes"
	"container/list"
	"encoding/gob"
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

	cmu       sync.Mutex
	chunks    map[snapshot.Digest]*chunkEnt
	chunkLRU  *list.List // front = most recently used
	chunkCap  int        // max resident chunks; <=0 means unbounded
	evictions uint64

	// testBeforePush, when set (tests only), runs in the kPush
	// dispatch path — the window where a concurrent eviction races an
	// in-flight digest negotiation.
	testBeforePush func()
}

// chunkEnt is one resident peripheral chunk plus its LRU handle.
type chunkEnt struct {
	hw   *sim.HWState
	elem *list.Element // value: snapshot.Digest
}

// DefaultChunkCap bounds the server's shared peripheral-chunk cache.
// A chunk is a few hundred bytes gob-encoded, so the default costs a
// few MiB at worst while still covering any realistic working set.
const DefaultChunkCap = 1 << 14

// NewServer hosts a target behind protocol v3.
func NewServer(root *target.Target) *Server {
	return &Server{
		root:     root,
		sessions: make(map[uint32]*session),
		chunks:   make(map[snapshot.Digest]*chunkEnt),
		chunkLRU: list.New(),
		chunkCap: DefaultChunkCap,
	}
}

// SetChunkCap bounds the shared chunk cache to n resident chunks
// (<=0 removes the bound). Shrinking evicts least-recently-used
// chunks immediately. Eviction is safe mid-negotiation: a client
// whose offered digest was evicted between kRestore and kPush sees it
// re-listed in Missing and re-uploads it as a delta (see applyRemote).
func (s *Server) SetChunkCap(n int) {
	s.cmu.Lock()
	s.chunkCap = n
	s.evictChunksLocked()
	s.cmu.Unlock()
}

// ChunkStats reports the chunk cache's residency and eviction count.
func (s *Server) ChunkStats() (entries int, evictions uint64) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return len(s.chunks), s.evictions
}

func (s *Server) evictChunksLocked() {
	if s.chunkCap <= 0 {
		return
	}
	for len(s.chunks) > s.chunkCap {
		back := s.chunkLRU.Back()
		if back == nil {
			return
		}
		s.chunkLRU.Remove(back)
		delete(s.chunks, back.Value.(snapshot.Digest))
		s.evictions++
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

func (s *Server) cacheChunk(d snapshot.Digest, hw *sim.HWState) {
	s.cmu.Lock()
	if ent, ok := s.chunks[d]; ok {
		s.chunkLRU.MoveToFront(ent.elem)
	} else {
		s.chunks[d] = &chunkEnt{hw: hw, elem: s.chunkLRU.PushFront(d)}
		s.evictChunksLocked()
	}
	s.cmu.Unlock()
}

func (s *Server) chunk(d snapshot.Digest) (*sim.HWState, bool) {
	s.cmu.Lock()
	ent, ok := s.chunks[d]
	if ok {
		s.chunkLRU.MoveToFront(ent.elem)
	}
	s.cmu.Unlock()
	if !ok {
		return nil, false
	}
	return ent.hw, true
}

// gobEncode serializes a control-frame body.
func gobEncode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(p []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(p)).Decode(v)
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

// errPayload builds a vstatusErr response: meta + class(1) + message.
func (sess *session) errPayload(err error) []byte {
	class := errorClass(err)
	m, _ := sess.meta(vstatusErr, false)
	m.status = vstatusErr // meta() may have been rebuilt without it
	body := append([]byte{byte(class)}, []byte(err.Error())...)
	return m.encode(body)
}

func (sess *session) okPayload(body []byte, sampleIRQ bool) []byte {
	m, err := sess.meta(vstatusOK, sampleIRQ)
	if err != nil {
		return sess.errPayload(err)
	}
	return m.encode(body)
}

// helloPayload answers kHello/kAttach/kSpawn with session info.
func (s *Server) helloPayload(tok uint32, sess *session) []byte {
	var irqMask uint64
	for i, name := range sess.periphs {
		if i < 64 && sess.tgt.IRQWired(name) {
			irqMask |= 1 << uint(i)
		}
	}
	body, err := gobEncode(helloInfo{
		Token:         tok,
		Kind:          sess.tgt.Kind(),
		Name:          sess.tgt.Name(),
		StateBits:     sess.tgt.StateBits(),
		Periphs:       sess.periphs,
		LastApplied:   sess.lastApplied,
		IRQMask:       irqMask,
		HasAssertions: sess.tgt.HasAssertions(),
	})
	if err != nil {
		return sess.errPayload(err)
	}
	return sess.okPayload(body, false)
}

// apply executes one sequenced v3 frame against the session and
// returns the full response payload. The caller holds sess.mu and has
// already done duplicate suppression.
func (s *Server) apply(sess *session, kind byte, payload []byte) []byte {
	switch kind {
	case kBatch:
		return s.applyBatch(sess, payload)
	case kSave:
		return s.applySave(sess)
	case kFetch:
		return s.applyFetch(sess, payload)
	case kRestore:
		var req restoreReq
		if err := gobDecode(payload, &req); err != nil {
			return sess.errPayload(fatalErr(err))
		}
		return s.applyRestore(sess, req.Mode, req.Entries, nil)
	case kPush:
		var req pushReq
		if err := gobDecode(payload, &req); err != nil {
			return sess.errPayload(fatalErr(err))
		}
		if s.testBeforePush != nil {
			s.testBeforePush()
		}
		return s.applyRestore(sess, req.Mode, req.Entries, req.Chunks)
	case kSpawn:
		return s.applySpawn(sess, payload)
	case kStats:
		body, err := gobEncode(sess.tgt.Stats())
		if err != nil {
			return sess.errPayload(err)
		}
		return sess.okPayload(body, false)
	case kViolations:
		body, err := gobEncode(sess.tgt.TakeViolations())
		if err != nil {
			return sess.errPayload(err)
		}
		return sess.okPayload(body, false)
	default:
		return sess.errPayload(fatalErr(fmt.Errorf("unknown v3 frame kind %#x", kind)))
	}
}

func fatalErr(err error) error {
	return &target.Error{Class: target.Fatal, Op: "remote", Err: err}
}

func (s *Server) applyBatch(sess *session, payload []byte) []byte {
	ops, err := decodeBatch(payload)
	if err != nil {
		return sess.errPayload(fatalErr(err))
	}
	status := make([]byte, len(ops))
	values := make([]uint64, len(ops))
	failed := false
	for i, op := range ops {
		if failed {
			status[i] = opSkipped
			continue
		}
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
				values[i] = uint64(v)
			case bWrite:
				opErr = port.WriteReg(op.offset, uint32(op.value))
			case bIRQ:
				var level bool
				level, opErr = port.IRQLevel()
				if level {
					values[i] = 1
				}
			}
		case bAdvance:
			opErr = sess.tgt.Advance(op.value)
		case bPing:
			values[i] = op.value
		case bReset:
			opErr = sess.tgt.Reset()
		default:
			opErr = fatalErr(fmt.Errorf("unknown batch op %d", op.op))
		}
		if opErr != nil {
			status[i] = byte(errorClass(opErr))
			failed = true
		}
	}
	return sess.okPayload(encodeBatchResults(status, values), true)
}

// applySave saves the session target's state and answers with the
// per-peripheral content digests; the state itself stays server-side
// until the client fetches the chunks it does not already hold.
func (s *Server) applySave(sess *session) []byte {
	st, err := sess.tgt.Save()
	if err != nil {
		return sess.errPayload(err)
	}
	offer := saveOffer{Entries: make([]chunkRef, 0, len(sess.periphs))}
	for _, name := range sess.periphs {
		hw := st[name]
		d := snapshot.HWDigest(hw)
		if hw != nil {
			s.cacheChunk(d, hw)
		}
		offer.Entries = append(offer.Entries, chunkRef{Name: name, Digest: d})
	}
	body, err := gobEncode(offer)
	if err != nil {
		return sess.errPayload(err)
	}
	return sess.okPayload(body, false)
}

func (s *Server) applyFetch(sess *session, payload []byte) []byte {
	var req fetchReq
	if err := gobDecode(payload, &req); err != nil {
		return sess.errPayload(fatalErr(err))
	}
	resp := fetchResp{}
	for _, d := range req.Digests {
		hw, ok := s.chunk(d)
		if !ok {
			return sess.errPayload(&target.Error{Class: target.Integrity, Op: "remote",
				Err: fmt.Errorf("fetch of unknown chunk %x", d[:8])})
		}
		data, err := gobEncode(hw)
		if err != nil {
			return sess.errPayload(err)
		}
		resp.Chunks = append(resp.Chunks, wireChunk{Digest: d, Data: data})
	}
	body, err := gobEncode(resp)
	if err != nil {
		return sess.errPayload(err)
	}
	return sess.okPayload(body, false)
}

// applyRestore handles kRestore (chunks nil) and kPush: it banks any
// uploaded chunks, then either reports the digests still missing or —
// when every named chunk is resident — assembles the state and
// applies it in the requested mode.
func (s *Server) applyRestore(sess *session, mode byte, entries []chunkRef, chunks []wireChunk) []byte {
	// pinned holds this frame's uploads for the assembly below, so a
	// concurrent eviction (another session pushing past the cap)
	// cannot unbank a chunk between its arrival and its use. Chunks
	// the server merely *claimed* to hold at kRestore time can still
	// be evicted mid-negotiation; those come back in Missing and the
	// client re-uploads them next round.
	pinned := make(map[snapshot.Digest]*sim.HWState, len(chunks))
	for _, c := range chunks {
		hw := &sim.HWState{}
		if err := gobDecode(c.Data, hw); err != nil {
			return sess.errPayload(&target.Error{Class: target.Integrity, Op: "remote",
				Err: fmt.Errorf("pushed chunk %x: %v", c.Digest[:8], err)})
		}
		if got := snapshot.HWDigest(hw); got != snapshot.Digest(c.Digest) {
			return sess.errPayload(&target.Error{Class: target.Integrity, Op: "remote",
				Err: fmt.Errorf("pushed chunk digest mismatch (%x != %x)", got[:8], c.Digest[:8])})
		}
		pinned[c.Digest] = hw
		s.cacheChunk(c.Digest, hw)
	}
	st := make(target.State, len(entries))
	var missing [][32]byte
	for _, e := range entries {
		hw, ok := pinned[snapshot.Digest(e.Digest)]
		if !ok {
			hw, ok = s.chunk(e.Digest)
		}
		if !ok {
			missing = append(missing, e.Digest)
			continue
		}
		st[e.Name] = hw
	}
	if len(missing) > 0 {
		body, err := gobEncode(restoreResp{Missing: missing})
		if err != nil {
			return sess.errPayload(err)
		}
		return sess.okPayload(body, false)
	}
	resp := restoreResp{Applied: true}
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
		return sess.errPayload(err)
	}
	body, gerr := gobEncode(resp)
	if gerr != nil {
		return sess.errPayload(gerr)
	}
	return sess.okPayload(body, false)
}

func (s *Server) applySpawn(sess *session, payload []byte) []byte {
	var req spawnReq
	if err := gobDecode(payload, &req); err != nil {
		return sess.errPayload(fatalErr(err))
	}
	nt, err := sess.tgt.Spawn(req.Name, &vtime.Clock{}, req.Stream)
	if err != nil {
		return sess.errPayload(err)
	}
	tok, nsess := s.newSession(nt)
	return s.helloPayload(tok, nsess)
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
		switch {
		case err == nil:
		case errors.Is(err, errPayloadCRC):
			// Framing survived: stay in sync, reject the frame as a
			// unit so the client retransmits it as a unit.
			m := respMeta{status: vstatusBadFrame}
			if sess != nil {
				// The session may already be live on a newer
				// connection (the client redialed while this one still
				// had frames buffered), so its target is read under the
				// session lock like everywhere else.
				sess.mu.Lock()
				sm, merr := sess.meta(vstatusBadFrame, false)
				sess.mu.Unlock()
				if merr == nil {
					m = sm
				}
			}
			if werr := writeFrame(conn, kResp, seq, m.encode(nil)); werr != nil {
				return fmt.Errorf("remote: write response: %w", werr)
			}
			continue
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

		var resp []byte
		switch kind {
		case kHello, kAttach:
			var req helloReq
			if derr := gobDecode(payload, &req); derr != nil || req.Magic != helloMagic {
				return fmt.Errorf("remote: bad hello frame")
			}
			if kind == kHello {
				tok, ns := s.newSession(s.root)
				sess = ns
				resp = s.helloPayload(tok, sess)
			} else {
				s.mu.Lock()
				ns, ok := s.sessions[req.Token]
				s.mu.Unlock()
				if !ok {
					return fmt.Errorf("remote: attach to unknown session %d", req.Token)
				}
				sess = ns
				sess.mu.Lock()
				resp = s.helloPayload(req.Token, sess)
				sess.mu.Unlock()
			}
		default:
			if sess == nil {
				return fmt.Errorf("remote: v3 frame %#x before hello", kind)
			}
			sess.mu.Lock()
			switch {
			case seq <= sess.lastApplied:
				// Duplicate of an applied frame (the client never saw
				// the response): replay the cached response so the
				// frame is applied exactly once.
				if cached, ok := sess.respCache[seq]; ok {
					resp = cached
				} else {
					m, _ := sess.meta(vstatusOutOfOrder, false)
					m.status = vstatusOutOfOrder
					resp = m.encode(nil)
				}
			case seq != sess.lastApplied+1:
				// A predecessor was lost: refuse, client goes back.
				m, _ := sess.meta(vstatusOutOfOrder, false)
				m.status = vstatusOutOfOrder
				resp = m.encode(nil)
			default:
				resp = s.apply(sess, kind, payload)
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
		if err := writeFrame(conn, kResp, seq, resp); err != nil {
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
