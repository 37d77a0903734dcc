package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxMessage caps one JSON message on a farm or dist connection, in
// bytes without its newline. The largest messages are a job carrying
// firmware and Verilog sources and a dist node's subtree result, whose
// bug snapshots travel inline: the cap bounds one subtree's bug
// records (DESIGN §14).
const MaxMessage = 16 << 20

// ErrMessageTooLarge is what MessageReader returns for a message past
// MaxMessage. The reader is then inside that message, so the caller
// drops the connection.
var ErrMessageTooLarge = fmt.Errorf("campaign: message exceeds %d bytes", MaxMessage)

// MessageReader reads the newline-delimited JSON messages of a farm or
// dist connection (the writer side is a json.Encoder). It holds at
// most MaxMessage bytes of one message, so a peer that streams one
// endless value gets ErrMessageTooLarge instead of the reader's memory.
type MessageReader struct{ r *bufio.Reader }

// NewMessageReader reads messages from r.
func NewMessageReader(r io.Reader) *MessageReader {
	return &MessageReader{r: bufio.NewReader(r)}
}

// Read decodes the next message into v, skipping blank lines. It
// returns io.EOF when the peer closed between messages and
// io.ErrUnexpectedEOF when it closed inside one.
func (m *MessageReader) Read(v any) error {
	var msg []byte
	for {
		part, err := m.r.ReadSlice('\n')
		n := len(msg) + len(part)
		if err == nil {
			n-- // the newline
		}
		if n > MaxMessage {
			return ErrMessageTooLarge
		}
		msg = append(msg, part...)
		switch {
		case err == nil:
			if len(bytes.TrimSpace(msg)) == 0 {
				msg = msg[:0]
				continue
			}
			return json.Unmarshal(msg, v)
		case errors.Is(err, bufio.ErrBufferFull):
			// The line goes on past the buffer: read its next part.
		case errors.Is(err, io.EOF) && len(bytes.TrimSpace(msg)) > 0:
			return io.ErrUnexpectedEOF
		default:
			return err
		}
	}
}

// Conn is one end of a farm or dist connection: messages go out
// through a json.Encoder and come in through a MessageReader.
type Conn struct {
	c    net.Conn
	enc  *json.Encoder
	msgs *MessageReader
}

func newConn(c net.Conn) *Conn {
	return &Conn{c: c, enc: json.NewEncoder(c), msgs: NewMessageReader(c)}
}

// Dial connects to a farm or dist server.
func Dial(addr string) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return newConn(c), nil
}

// Send writes one message.
func (c *Conn) Send(v any) error { return c.enc.Encode(v) }

// Receive reads the next message into v (see MessageReader.Read).
func (c *Conn) Receive(v any) error { return c.msgs.Read(v) }

// RoundTrip sends req and reads its reply into resp.
func (c *Conn) RoundTrip(req, resp any) error {
	if err := c.Send(req); err != nil {
		return err
	}
	return c.Receive(resp)
}

// Close drops the connection.
func (c *Conn) Close() error { return c.c.Close() }

// ConnServer is the accept loop and connection registry under the farm
// and dist servers: each accepted connection is handed to serve on its
// own goroutine, and Close drops every live connection and waits for
// the handlers to return.
type ConnServer struct {
	serve func(*Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewConnServer returns a server that runs serve for every connection.
func NewConnServer(serve func(*Conn)) *ConnServer {
	return &ConnServer{serve: serve, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close; it returns nil after a
// clean Close.
func (s *ConnServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close ran before this Serve started: nothing would close ln.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		s.mu.Lock()
		if s.closed {
			// Close has swept the registry (or is about to wait on it):
			// a connection accepted now is never registered.
			s.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serve(newConn(conn))
		}()
	}
}

// ListenAndServe listens on addr (":0" picks a port) and serves in the
// background, returning the bound address.
func (s *ConnServer) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln) //nolint:errcheck — Serve only errors after Close
	return ln.Addr(), nil
}

// Close stops accepting, drops live connections and waits for their
// handlers.
func (s *ConnServer) Close() {
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
}
