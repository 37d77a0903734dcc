package farm

import (
	"errors"
	"fmt"
	"io"

	"hardsnap/internal/campaign"
)

// The wire protocol is line-delimited JSON over TCP (campaign.Conn):
// each request is one Request object, each reply one Response object,
// at most campaign.MaxMessage bytes each. A
// connection carries any number of sequential requests; a stream
// request turns the connection into a one-way event feed terminated
// by a final done Response.

// Request is one client → server message.
type Request struct {
	// Op selects the operation: submit | results | stream | cancel.
	Op string `json:"op"`
	// Tenant authenticates the submitter (submit).
	Tenant string `json:"tenant,omitempty"`
	// Job is the campaign spec (submit).
	Job *campaign.Job `json:"job,omitempty"`
	// ID names an existing job (results / stream / cancel).
	ID string `json:"id,omitempty"`
}

// Response is one server → client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// ID echoes the job ID (submit).
	ID string `json:"id,omitempty"`
	// Job carries job state (results).
	Job *JobInfo `json:"job,omitempty"`
	// Event is one streamed progress event (stream).
	Event *campaign.Event `json:"event,omitempty"`
	// Done terminates a stream.
	Done bool `json:"done,omitempty"`
}

// Server exposes a Farm over TCP. Serve, ListenAndServe and Close are
// the shared connection layer's; Close leaves the farm itself to its
// owner.
type Server struct {
	*campaign.ConnServer
	farm *Farm
}

// NewServer wraps the farm; call Serve to accept clients.
func NewServer(f *Farm) *Server {
	s := &Server{farm: f}
	s.ConnServer = campaign.NewConnServer(s.serveConn)
	return s
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
		if req.Op == "stream" {
			s.stream(c, req.ID)
			return // a stream consumes the rest of the connection
		}
		if err := c.Send(s.handle(req)); err != nil {
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
	case "results":
		info, ok := s.farm.Job(req.ID)
		if !ok {
			return Response{Error: fmt.Sprintf("unknown job %q", req.ID)}
		}
		return Response{OK: true, ID: info.ID, Job: &info}
	case "cancel":
		if err := s.farm.Cancel(req.ID); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, ID: req.ID}
	}
	return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

func (s *Server) stream(c *campaign.Conn, id string) {
	ch, ok := s.farm.Subscribe(id)
	if !ok {
		_ = c.Send(Response{Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	for ev := range ch {
		ev := ev
		if err := c.Send(Response{OK: true, Event: &ev}); err != nil {
			return
		}
	}
	_ = c.Send(Response{OK: true, Done: true})
}
