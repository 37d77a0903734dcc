package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"hardsnap/internal/campaign"
)

// The wire protocol is line-delimited JSON over TCP: each request is
// one Request object, each reply one Response object. Encoding uses
// json.Encoder/Decoder streams rather than line scanners, so
// firmware blobs are not subject to any line-length limit. A
// connection carries any number of sequential requests; a stream
// request turns the connection into a one-way event feed terminated
// by a final done Response.

// Request is one client → server message.
type Request struct {
	// Op selects the operation: submit | status | results | stream |
	// cancel | tenants | pool.
	Op string `json:"op"`
	// Tenant authenticates the submitter (submit).
	Tenant string `json:"tenant,omitempty"`
	// Job is the campaign spec (submit).
	Job *campaign.Job `json:"job,omitempty"`
	// ID names an existing job (status / results / stream / cancel).
	ID string `json:"id,omitempty"`
}

// Response is one server → client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// ID echoes the job ID (submit).
	ID string `json:"id,omitempty"`
	// Job carries job state (status / results).
	Job *JobInfo `json:"job,omitempty"`
	// Event is one streamed progress event (stream).
	Event *campaign.Event `json:"event,omitempty"`
	// Done terminates a stream.
	Done bool `json:"done,omitempty"`
	// Tenants / Pool carry introspection payloads.
	Tenants []TenantUsage `json:"tenants,omitempty"`
	Pool    *PoolStats    `json:"pool,omitempty"`
}

// Server exposes a Farm over TCP.
type Server struct {
	farm *Farm

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// NewServer wraps the farm; call Serve to accept clients.
func NewServer(f *Farm) *Server {
	return &Server{farm: f, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close. It returns nil after
// Close shuts the listener down.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.ln == nil
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
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

// ListenAndServe listens on addr and serves; the returned address is
// useful with ":0".
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck — Serve only errors after Close
	return ln.Addr(), nil
}

// Close stops accepting, drops live connections and waits for
// handlers. The farm itself is closed by its owner.
func (s *Server) Close() {
	s.mu.Lock()
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
		if req.Op == "stream" {
			s.stream(enc, req.ID)
			return // a stream consumes the rest of the connection
		}
		if err := enc.Encode(s.handle(req)); err != nil {
			return
		}
	}
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case "submit":
		if req.Job == nil {
			return Response{Error: "submit: missing job"}
		}
		id, err := s.farm.Submit(req.Tenant, *req.Job)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, ID: id}
	case "status", "results":
		info, ok := s.farm.Job(req.ID)
		if !ok {
			return Response{Error: fmt.Sprintf("unknown job %q", req.ID)}
		}
		if req.Op == "status" {
			// status is the lightweight poll: strip the result body
			// but piggyback the pool/store counters so a monitoring
			// loop sees pool pressure without a second op.
			info.Result = nil
			st := s.farm.PoolStats()
			return Response{OK: true, ID: info.ID, Job: &info, Pool: &st}
		}
		return Response{OK: true, ID: info.ID, Job: &info}
	case "cancel":
		if err := s.farm.Cancel(req.ID); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, ID: req.ID}
	case "tenants":
		return Response{OK: true, Tenants: s.farm.Tenants()}
	case "pool":
		st := s.farm.PoolStats()
		return Response{OK: true, Pool: &st}
	}
	return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

func (s *Server) stream(enc *json.Encoder, id string) {
	ch, ok := s.farm.Subscribe(id)
	if !ok {
		_ = enc.Encode(Response{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	for ev := range ch {
		ev := ev
		if err := enc.Encode(Response{OK: true, Event: &ev}); err != nil {
			return
		}
	}
	_ = enc.Encode(Response{OK: true, Done: true})
}
