package campaign

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

// valueReader streams one JSON object {"x":"aaa…"} whose string holds
// n bytes, followed by a newline unless endless is set, in which case
// the string never ends. Nothing of it is held in memory.
type valueReader struct {
	pre     string
	n       int64
	post    string
	endless bool
}

func newValueReader(total int, endless bool) *valueReader {
	const pre, post = `{"x":"`, "\"}\n"
	return &valueReader{pre: pre, n: int64(total - len(pre) - len(post) + 1), post: post, endless: endless}
}

func (r *valueReader) Read(p []byte) (int, error) {
	switch {
	case len(r.pre) > 0:
		n := copy(p, r.pre)
		r.pre = r.pre[n:]
		return n, nil
	case r.endless || r.n > 0:
		n := len(p)
		if !r.endless && int64(n) > r.n {
			n = int(r.n)
		}
		for i := range p[:n] {
			p[i] = 'a'
		}
		r.n -= int64(n)
		return n, nil
	case len(r.post) > 0:
		n := copy(p, r.post)
		r.post = r.post[n:]
		return n, nil
	}
	return 0, io.EOF
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestMessageReaderCap: a message of exactly MaxMessage bytes decodes;
// one byte more is refused, and so is an endless value, after the
// reader has consumed little more than the cap of it.
func TestMessageReaderCap(t *testing.T) {
	var v struct{}
	if err := NewMessageReader(newValueReader(MaxMessage, false)).Read(&v); err != nil {
		t.Fatalf("message at the cap: %v", err)
	}
	if err := NewMessageReader(newValueReader(MaxMessage+1, false)).Read(&v); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("message one byte over the cap: %v, want ErrMessageTooLarge", err)
	}
	src := &countingReader{r: newValueReader(0, true)}
	if err := NewMessageReader(src).Read(&v); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("endless value: %v, want ErrMessageTooLarge", err)
	}
	if src.n > MaxMessage+1<<16 {
		t.Fatalf("reader consumed %d bytes of an endless value, cap %d", src.n, MaxMessage)
	}
}

// TestMessageReaderFraming: blank lines are skipped, a clean close
// between messages is io.EOF and a close inside one is
// io.ErrUnexpectedEOF.
func TestMessageReaderFraming(t *testing.T) {
	r := NewMessageReader(strings.NewReader("{\"op\":\"a\"}\n\n  \n{\"op\":\"b\"}\n{\"op\":"))
	for _, want := range []string{"a", "b"} {
		var m struct{ Op string }
		if err := r.Read(&m); err != nil || m.Op != want {
			t.Fatalf("read %q, %v; want %q", m.Op, err, want)
		}
	}
	var m struct{ Op string }
	if err := r.Read(&m); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("close inside a message: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := NewMessageReader(strings.NewReader("{}\n")).Read(&m); err != nil {
		t.Fatal(err)
	}
	if err := NewMessageReader(strings.NewReader("\n")).Read(&m); !errors.Is(err, io.EOF) {
		t.Fatalf("close between messages: %v, want io.EOF", err)
	}
}

// TestConnServerClose: the shared connection layer answers round trips,
// and Close drops idle clients, waits for their handlers and makes
// Serve return nil — also for a Serve that starts after Close.
func TestConnServerClose(t *testing.T) {
	srv := NewConnServer(func(c *Conn) {
		for {
			var m struct{ Op string }
			if c.Receive(&m) != nil || c.Send(m) != nil {
				return
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var echo struct{ Op string }
	if err := c.RoundTrip(struct{ Op string }{"ping"}, &echo); err != nil || echo.Op != "ping" {
		t.Fatalf("round trip: %q, %v", echo.Op, err)
	}
	srv.Close()
	if err := c.Receive(&echo); err == nil {
		t.Fatal("idle client still connected after Close")
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v, want nil", err)
	}

	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err != nil {
		t.Fatalf("Serve on a closed server: %v, want nil", err)
	}
	if _, err := net.Dial("tcp", ln2.Addr().String()); err == nil {
		t.Fatal("a closed server left its new listener open")
	}
}
