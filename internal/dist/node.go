package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
)

// Server is one distributed exploration node: it prepares campaigns
// (re-running the deterministic seed phase from the job) and runs
// subtrees by bare index. One Server typically fronts one machine's
// worth of targets; concurrent connections (the driver opens one per
// work slot) share prepared campaigns. Serve and ListenAndServe are
// the shared connection layer's.
type Server struct {
	*campaign.ConnServer
	ctx    context.Context
	cancel context.CancelFunc

	// campaigns holds the prepared frontiers by job fingerprint.
	mu        sync.Mutex
	campaigns map[string]*core.Frontier

	// testBeforeRun, when set, observes every run op before the
	// subtree executes (tests inject node death here).
	testBeforeRun func(subtree int)
}

// NewServer returns an idle node.
func NewServer() *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*core.Frontier),
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
	for tok, f := range s.campaigns {
		f.Close()
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
	case "release":
		s.mu.Lock()
		if f, ok := s.campaigns[req.Token]; ok {
			f.Close()
			delete(s.campaigns, req.Token)
		}
		s.mu.Unlock()
		return Response{OK: true}
	}
	return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

func (s *Server) campaign(token string) (*core.Frontier, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.campaigns[token]
	return f, ok
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
	if f, ok := s.campaigns[tok]; ok {
		id := f.ID()
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
	s.campaigns[tok] = f
	return Response{OK: true, Token: tok, Frontier: &id}
}

// run executes one subtree and answers with its encoded result, bug
// snapshots inline, as the campaign journal stores it.
func (s *Server) run(req Request) Response {
	f, ok := s.campaign(req.Token)
	if !ok {
		return Response{Error: fmt.Sprintf("run: unknown campaign %q", req.Token)}
	}
	if s.testBeforeRun != nil {
		s.testBeforeRun(req.Subtree)
	}
	res, err := f.RunSubtree(s.ctx, req.Subtree)
	if err != nil {
		return Response{Error: fmt.Sprintf("run: subtree %d: %v", req.Subtree, err)}
	}
	return Response{OK: true, Result: res.Encode()}
}
