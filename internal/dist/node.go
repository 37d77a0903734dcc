package dist

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
// work slot) share prepared campaigns. Serve and ListenAndServe are
// the shared connection layer's.
type Server struct {
	*campaign.ConnServer
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*nodeCampaign

	// testBeforeRun, when set, observes every run op before the
	// subtree executes (tests inject node death here).
	testBeforeRun func(subtree int)
}

// nodeCampaign is one prepared frontier plus the node-side fabric
// state: which solver entries the driver has been offered, which bug
// records this node holds, and the peripheral chunks of the seed
// snapshots, which cross the wire as digests.
type nodeCampaign struct {
	f    *core.Frontier
	seed map[snapshot.Digest]bool

	mu     sync.Mutex
	cursor int
	bugs   map[string]*snapshot.Record
}

// NewServer returns an idle node.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*nodeCampaign),
	}
	s.ConnServer = campaign.NewConnServer(s.serveConn)
	return s
}

// Close cancels in-flight subtrees, drops connections and releases
// every prepared campaign.
func (s *Server) Close() {
	s.cancel()
	s.ConnServer.Close()
	s.mu.Lock()
	for tok, c := range s.campaigns {
		c.f.Close()
		delete(s.campaigns, tok)
	}
	s.mu.Unlock()
}

func (s *Server) serveConn(c *campaign.Conn) {
	for {
		var req Request
		if err := c.Receive(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				_ = c.Send(Response{Error: fmt.Sprintf("bad request: %v", err)})
			}
			return
		}
		if err := c.Send(s.handle(req)); err != nil {
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
	// The job identity names the campaign.
	tok := job.Fingerprint()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
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
		seed: make(map[snapshot.Digest]bool),
		bugs: make(map[string]*snapshot.Record),
	}
	// The FrontierID proved both sides ran the same seed phase, so the
	// driver's store holds every peripheral chunk of the seed snapshots
	// until it closes its frontier, and this node's until it releases
	// the campaign: peripheral state a subtree never touched crosses the
	// wire as a digest. No other chunk is assumed on the driver, whatever
	// an earlier fetch shipped — it may have gone to another driver.
	for _, hexd := range id.SeedSnapshots {
		var d snapshot.Digest
		if _, err := hex.Decode(d[:], []byte(hexd)); err != nil {
			continue
		}
		if rec, ok := f.Store().RecordByDigest(d); ok {
			for _, hw := range rec.HW {
				c.seed[snapshot.HWDigest(hw)] = true
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
// peripheral chunks of the seed snapshots are referenced by digest,
// everything else travels inline.
func (s *Server) fetch(req Request) Response {
	c, ok := s.campaign(req.Token)
	if !ok {
		return Response{Error: fmt.Sprintf("fetch: unknown campaign %q", req.Token)}
	}
	c.mu.Lock()
	rec, ok := c.bugs[req.Digest]
	c.mu.Unlock()
	if !ok {
		return Response{Error: fmt.Sprintf("fetch: unknown digest %s", req.Digest)}
	}
	return Response{OK: true, Data: snapshot.EncodeDelta(rec, func(d snapshot.Digest) bool { return c.seed[d] })}
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
