package dist

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/snapshot"
)

// Server is one distributed exploration node: it prepares campaigns
// (re-running the deterministic seed phase from the job), runs
// subtrees by bare index, and serves bug-snapshot content over the
// digest-peering fabric. One Server typically fronts one machine's
// worth of targets; concurrent connections (the driver opens one per
// work slot) share prepared campaigns.
type Server struct {
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*nodeCampaign
	ln        net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	// testBeforeRun, when set, observes every run op before the
	// subtree executes (tests inject node death here).
	testBeforeRun func(subtree int)
}

// nodeCampaign is one prepared frontier plus the node-side fabric
// state: which solver entries the driver has been offered, which bug
// records this node holds, and which peripheral chunks have already
// been shipped (those cross the wire as digests forever after).
type nodeCampaign struct {
	f *core.Frontier

	mu     sync.Mutex
	cursor int
	bugs   map[string]*snapshot.Record
	sent   map[snapshot.Digest]bool
}

// NewServer returns an idle node.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*nodeCampaign),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts driver connections until Close; it returns nil after
// a clean Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// ListenAndServe listens on addr (":0" picks a port) and serves in
// the background, returning the bound address.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck — Serve only errors after Close
	return ln.Addr(), nil
}

// Close cancels in-flight subtrees, drops connections and releases
// every prepared campaign.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	for tok, c := range s.campaigns {
		c.f.Close()
		delete(s.campaigns, tok)
	}
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	msgs := campaign.NewMessageReader(conn)
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := msgs.Read(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				_ = enc.Encode(Response{Error: fmt.Sprintf("bad request: %v", err)})
			}
			return
		}
		if err := enc.Encode(s.handle(req)); err != nil {
			return
		}
	}
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case "prepare":
		return s.prepare(req)
	case "run":
		return s.run(req)
	case "fetch":
		return s.fetch(req)
	case "stats":
		return s.stats(req)
	case "release":
		s.mu.Lock()
		if c, ok := s.campaigns[req.Token]; ok {
			c.f.Close()
			delete(s.campaigns, req.Token)
		}
		s.mu.Unlock()
		return Response{OK: true}
	}
	return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

func (s *Server) campaign(token string) (*nodeCampaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[token]
	return c, ok
}

// prepare re-runs the seed phase for the job and validates the
// resulting frontier against the driver's. Preparing an
// already-resident campaign is idempotent (it just re-validates), so
// every driver connection may prepare before running.
func (s *Server) prepare(req Request) Response {
	if req.Job == nil || req.Frontier == nil {
		return Response{Error: "prepare: missing job or frontier"}
	}
	job := *req.Job
	// A node must not recursively fan out, whatever the driver sent.
	job.Nodes = nil
	// The job identity names the campaign.
	tok := job.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Response{Error: "prepare: node is shutting down"}
	}
	if c, ok := s.campaigns[tok]; ok {
		id := c.f.ID()
		if !id.Equal(*req.Frontier) {
			return Response{Error: "prepare: frontier mismatch against resident campaign"}
		}
		return Response{OK: true, Token: tok, Frontier: &id}
	}
	setup, err := job.SetupConfig()
	if err != nil {
		return Response{Error: fmt.Sprintf("prepare: %v", err)}
	}
	analysis, err := core.Setup(setup)
	if err != nil {
		return Response{Error: fmt.Sprintf("prepare: %v", err)}
	}
	f, err := analysis.Engine.Frontier(s.ctx)
	if err != nil {
		return Response{Error: fmt.Sprintf("prepare: seed phase: %v", err)}
	}
	id := f.ID()
	if !id.Equal(*req.Frontier) {
		f.Close()
		return Response{Error: fmt.Sprintf(
			"prepare: frontier mismatch (node %d seeds / hash %s, driver %d / %s) — differing binaries or corrupted job",
			id.Seeds, id.SeedsHash, req.Frontier.Seeds, req.Frontier.SeedsHash)}
	}
	c := &nodeCampaign{
		f:    f,
		bugs: make(map[string]*snapshot.Record),
		sent: make(map[snapshot.Digest]bool),
	}
	// Pre-seed the shipped-chunk ledger with every peripheral chunk
	// reachable from the seed snapshots: the FrontierID proved both
	// sides ran the same seed phase, so the driver's store holds these
	// chunks too — peripheral state a subtree never touched can cross
	// the wire as a digest from the very first fetch. (If the driver
	// has since evicted one, its Full re-fetch fallback recovers.)
	for _, hexd := range id.SeedSnapshots {
		var d snapshot.Digest
		if _, err := hex.Decode(d[:], []byte(hexd)); err != nil {
			continue
		}
		if rec, ok := f.Store().RecordByDigest(d); ok {
			for _, hw := range rec.HW {
				c.sent[snapshot.HWDigest(hw)] = true
			}
		}
	}
	s.campaigns[tok] = c
	return Response{OK: true, Token: tok, Frontier: &id}
}

// run executes one subtree. The request piggybacks the solver-fabric
// delta (imported before execution); the response piggybacks the
// verdicts this node discovered since its previous response and the
// detached bug snapshots as content digests.
func (s *Server) run(req Request) Response {
	c, ok := s.campaign(req.Token)
	if !ok {
		return Response{Error: fmt.Sprintf("run: unknown campaign %q", req.Token)}
	}
	if s.testBeforeRun != nil {
		s.testBeforeRun(req.Subtree)
	}
	if len(req.Solver) > 0 {
		c.f.SolverCache().Import(req.Solver)
	}
	res, err := c.f.RunSubtree(s.ctx, req.Subtree)
	if err != nil {
		return Response{Error: fmt.Sprintf("run: subtree %d: %v", req.Subtree, err)}
	}
	resp := Response{OK: true}
	for id, rec := range res.BugSnaps {
		d := snapshot.DigestRecord(rec)
		hexd := fmt.Sprintf("%x", d[:])
		c.mu.Lock()
		c.bugs[hexd] = rec
		c.mu.Unlock()
		resp.Bugs = append(resp.Bugs, BugRef{State: id, Digest: hexd, Bytes: uint64(len(snapshot.EncodeDelta(rec, nil)))})
	}
	sort.Slice(resp.Bugs, func(i, j int) bool { return resp.Bugs[i].State < resp.Bugs[j].State })
	// The records stay in this node's cache; the result travels without.
	res.BugSnaps = nil
	data, err := res.Encode()
	if err != nil {
		return Response{Error: fmt.Sprintf("run: encode result: %v", err)}
	}
	resp.Result = data
	c.mu.Lock()
	resp.Solver, c.cursor = c.f.SolverCache().DeltaSince(c.cursor)
	c.mu.Unlock()
	return resp
}

// fetch serves one bug record over the digest-peering fabric:
// peripheral chunks already shipped to this driver are referenced by
// digest, everything else travels inline (and is then marked
// shipped). Full fetches bypass the ledger — the driver's recovery
// path when its own store no longer resolves a referenced digest.
func (s *Server) fetch(req Request) Response {
	c, ok := s.campaign(req.Token)
	if !ok {
		return Response{Error: fmt.Sprintf("fetch: unknown campaign %q", req.Token)}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.bugs[req.Digest]
	if !ok {
		return Response{Error: fmt.Sprintf("fetch: unknown digest %s", req.Digest)}
	}
	frame := snapshot.EncodeDelta(rec, func(d snapshot.Digest) bool { return c.sent[d] && !req.Full })
	for _, hw := range rec.HW {
		c.sent[snapshot.HWDigest(hw)] = true
	}
	return Response{OK: true, Data: frame}
}

func (s *Server) stats(req Request) Response {
	s.mu.Lock()
	n := len(s.campaigns)
	c := s.campaigns[req.Token]
	s.mu.Unlock()
	st := &NodeStatus{Campaigns: n}
	if c != nil {
		st.Solver = c.f.SolverCache().Stats()
		st.Store = c.f.Store().Stats()
	}
	return Response{OK: true, Status: st}
}
