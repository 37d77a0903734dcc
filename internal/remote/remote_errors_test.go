package remote

// Error and link-failure paths of the wire protocol, from both ends:
// what the server does with malformed or truncated input, and what the
// client does with a peer that misbehaves.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// serveRaw runs a server for tg on one end of a pipe and returns the
// other end plus ServeConn's eventual return value.
func serveRaw(t *testing.T, tg *target.Target) (net.Conn, <-chan error) {
	t.Helper()
	cConn, sConn := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- NewServer(tg).ServeConn(sConn) }()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })
	return cConn, errc
}

// scriptedPeer completes the hello handshake like a server hosting one
// gpio would, then hands every later request frame to respond — a
// stand-in for a peer that answers wrongly. It returns the connected
// client.
func scriptedPeer(t *testing.T, respond func(conn net.Conn, seq uint32)) *TargetClient {
	t.Helper()
	cConn, sConn := net.Pipe()
	t.Cleanup(func() { cConn.Close(); sConn.Close() })
	go func() {
		_, seq, _, err := readFrame(sConn)
		if err != nil {
			return
		}
		info := appendHelloInfo(nil, helloInfo{Token: 1, Kind: "sim", Name: "scripted", Periphs: []string{"gpio0"}})
		ok := respMeta{status: vstatusOK}
		if writeFrame(sConn, kResp, seq, respPayload(ok, info)) != nil {
			return
		}
		for {
			_, seq, _, err := readFrame(sConn)
			if err != nil {
				return
			}
			respond(sConn, seq)
		}
	}()
	c, err := Connect(cConn, &vtime.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// respPayload is a response payload: telemetry header, then body.
func respPayload(m respMeta, body []byte) []byte { return append(m.append(nil), body...) }

// appendBatchResults packs per-op results as a batch response body.
func appendBatchResults(b []byte, status []byte, values []uint64) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(status)))
	for i := range status {
		b = binary.LittleEndian.AppendUint64(append(b, status[i]), values[i])
	}
	return b
}

// rawBody hands roundTrip a ready-made request payload.
func rawBody(p []byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, p...) }
}

// TestRemoteErrorPropagation: a failing op whose result the caller is
// waiting on (a read, as opposed to a queued write) returns the typed
// error directly, and the link stays usable.
func TestRemoteErrorPropagation(t *testing.T) {
	c := v3Pipe(t, newV3Target(t))
	_, err := (&clientPort{c: c, idx: 99}).ReadReg(0)
	if target.Classify(err) != target.Fatal {
		t.Fatalf("read of a missing peripheral: %v, want fatal class", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("link dead after error: %v", err)
	}
}

func TestClientBrokenLink(t *testing.T) {
	cConn, sConn := net.Pipe()
	sConn.Close()
	cConn.Close()
	if _, err := Connect(cConn, nil); err == nil {
		t.Fatal("handshake on a closed link must fail")
	}
}

func TestServeUnknownOpcode(t *testing.T) {
	c := v3Pipe(t, newV3Target(t))
	c.enqueue(batchOp{op: 99})
	if err := c.flush(); target.Classify(err) != target.Fatal {
		t.Fatalf("unknown batch op: %v, want fatal class", err)
	}
	// The link survives a protocol error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

// batchFrame builds the wire bytes of one sequenced kBatch frame.
func batchFrame(t *testing.T, seq uint32, ops ...batchOp) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, kBatch, seq, appendBatch(nil, ops)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServeBadRequestCRC(t *testing.T) {
	tg := newV3Target(t)
	conn, _ := serveRaw(t, tg)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	exchange := func(frame []byte) respMeta {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		kind, seq, payload, err := readFrame(conn)
		if err != nil || kind != kResp || seq != 1 {
			t.Fatalf("response: kind %#x seq %d err %v", kind, seq, err)
		}
		m, _, err := decodeMeta(payload)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	good := batchFrame(t, 1, batchOp{op: bWrite, offset: 0, value: 0xBEEF})
	bad := append([]byte(nil), good...)
	bad[v3HdrLen+4] ^= 0x40 // corrupt the payload, keep the stale CRC
	if m := exchange(bad); m.status != vstatusBadFrame {
		t.Fatalf("corrupt request: status %d, want vstatusBadFrame", m.status)
	}
	// The corrupted write must not have been applied, and its sequence
	// number is still free for the retransmission.
	gpio, err := tg.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if v, err := gpio.ReadReg(0); err != nil || v != 0 {
		t.Fatalf("rejected write reached the hardware: %#x, %v", v, err)
	}
	if m := exchange(good); m.status != vstatusOK {
		t.Fatalf("retransmission: status %d, want vstatusOK", m.status)
	}
	if v, err := gpio.ReadReg(0); err != nil || v != 0xBEEF {
		t.Fatalf("retransmitted write: %#x, %v", v, err)
	}
}

func TestServeTruncatedRequest(t *testing.T) {
	conn, errc := serveRaw(t, newV3Target(t))
	// Half a header, then a clean close: the server must report the
	// truncation instead of masking it as a clean shutdown.
	if _, err := conn.Write(batchFrame(t, 1)[:4]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	err := <-errc
	if err == nil {
		t.Fatal("ServeConn must fail on a truncated header")
	}
	if !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("ServeConn error %q, want truncation", err)
	}
}

// TestServeCleanCloseReturnsNil covers the two clean endings that
// involve no frame at all: the peer leaves before saying hello, and the
// server's own end is closed under a blocked read (listener shutdown).
func TestServeCleanCloseReturnsNil(t *testing.T) {
	conn, errc := serveRaw(t, newV3Target(t))
	conn.Close()
	if err := <-errc; err != nil {
		t.Fatalf("peer left before hello: ServeConn returned %v", err)
	}

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	errc2 := make(chan error, 1)
	srv := NewServer(newV3Target(t))
	go func() { errc2 <- srv.ServeConn(sConn) }()
	if _, err := Connect(cConn, nil); err != nil {
		t.Fatal(err)
	}
	sConn.Close()
	if err := <-errc2; err != nil {
		t.Fatalf("local close: ServeConn returned %v", err)
	}
}

// TestStatusErrClassPropagation: a vstatusErr response carries the
// target error class to the caller, and non-transient classes are
// never retried.
func TestStatusErrClassPropagation(t *testing.T) {
	cases := []struct {
		name  string
		call  func(c *TargetClient) error
		class target.ErrorClass
	}{
		{"integrity", func(c *TargetClient) error {
			_, err := c.roundTrip(kFetch, rawBody(appendDigests(nil, []snapshot.Digest{{1}}))) // no such chunk
			return err
		}, target.Integrity},
		{"fatal", func(c *TargetClient) error {
			_, err := c.roundTrip(kRestore, rawBody([]byte("not a restore body")))
			return err
		}, target.Fatal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := v3Pipe(t, newV3Target(t))
			// The client retries transient errors; fatal and integrity
			// ones must not be retried.
			err := tc.call(c)
			if err == nil {
				t.Fatal("call must fail")
			}
			if target.Classify(err) != tc.class {
				t.Fatalf("error %v lost its %s class", err, tc.name)
			}
			if r := c.WireStats().Retransmits; r != 0 {
				t.Fatalf("%d retransmits on a non-transient error", r)
			}
			if err := c.Ping(); err != nil {
				t.Fatalf("link dead after error response: %v", err)
			}
		})
	}
}

// TestClientRetriesTransientStatus: a peer that rejects every
// transmission exhausts exactly the retry budget, and the failure keeps
// its transient class.
func TestClientRetriesTransientStatus(t *testing.T) {
	c := scriptedPeer(t, func(conn net.Conn, seq uint32) {
		m := respMeta{status: vstatusBadFrame}
		_ = writeFrame(conn, kResp, seq, respPayload(m, nil))
	})
	err := c.Ping()
	if err == nil {
		t.Fatal("ping must fail when every attempt is rejected")
	}
	if target.Classify(err) != target.Transient {
		t.Fatalf("exhausted retries lost transient class: %v", err)
	}
	if r := c.WireStats().Retransmits; r != maxRetries {
		t.Fatalf("retransmits %d, want %d", r, maxRetries)
	}
}

func TestClientTruncatedResponse(t *testing.T) {
	c := scriptedPeer(t, func(conn net.Conn, seq uint32) {
		_, _ = conn.Write([]byte{kResp, 0x12}) // 2 of 10 header bytes
		conn.Close()
	})
	err := c.Ping()
	if err == nil {
		t.Fatal("truncated response must fail")
	}
	if target.Classify(err) != target.Transient {
		t.Fatalf("link failure should classify transient (retry-worthy): %v", err)
	}
}

func TestPingEchoMismatch(t *testing.T) {
	c := scriptedPeer(t, func(conn net.Conn, seq uint32) {
		m := respMeta{status: vstatusOK}
		body := appendBatchResults(nil, []byte{opStatusOK}, []uint64{0xDEAD}) // wrong echo
		_ = writeFrame(conn, kResp, seq, respPayload(m, body))
	})
	err := c.Ping()
	if err == nil {
		t.Fatal("ping with a wrong echo must fail")
	}
	if target.Classify(err) != target.Transient {
		t.Fatalf("echo mismatch should classify transient: %v", err)
	}
}

// TestClientRetryUnderFaultyLink drops frames on a link with no Dial:
// recovery is retransmission on the same connection only, and the
// server's duplicate suppression keeps every advance exactly-once.
func TestClientRetryUnderFaultyLink(t *testing.T) {
	tg := newV3Target(t)
	conn, _ := serveRaw(t, tg)
	c, err := Connect(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Armed after the handshake, which has no deadline to detect a
	// dropped hello with.
	c.conn = target.NewFaultConn(conn, target.FaultSchedule{Seed: 42, DropRate: 0.25})
	c.Timeout = 50 * time.Millisecond

	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	const steps = 20
	for i := 0; i < steps; i++ {
		if err := gpio.WriteReg(0x00, uint32(i)); err != nil {
			t.Fatalf("write %d under faults: %v", i, err)
		}
		if err := c.Advance(1); err != nil {
			t.Fatalf("advance %d under faults: %v", i, err)
		}
		v, err := gpio.ReadReg(0x00)
		if err != nil {
			t.Fatalf("read %d under faults: %v", i, err)
		}
		if v != uint32(i) {
			t.Fatalf("readback %d got %#x", i, v)
		}
	}
	ws := c.WireStats()
	if ws.Retransmits == 0 {
		t.Fatal("fault schedule injected nothing; retransmits stayed 0")
	}
	if ws.Reconnects != 0 {
		t.Fatalf("%d reconnects without a Dial function", ws.Reconnects)
	}
	if cyc := tg.Stats().Cycles; cyc != steps {
		t.Fatalf("cycles %d, want %d (duplicated or lost advances)", cyc, steps)
	}
}

// TestClientRedial: redials that fail with a transport error burn
// retry budget instead of surfacing, and the session resumes on the
// first one that succeeds.
func TestClientRedial(t *testing.T) {
	c, dial := v3TCP(t, newV3Target(t))
	var dials atomic.Int32
	c.Dial = func() (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, errors.New("connection refused")
		}
		return dial()
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0x00, 0xA5); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.SeverLink(); err != nil {
		t.Fatal(err)
	}
	v, err := gpio.ReadReg(0x00)
	if err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if v != 0xA5 {
		t.Fatalf("state lost across reconnect: %#x", v)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 2 refused + 1 accepted", n)
	}
	if r := c.WireStats().Reconnects; r != 1 {
		t.Fatalf("reconnects %d, want 1", r)
	}
}

// eofSignalConn reports when the server side has read the peer's close.
type eofSignalConn struct {
	net.Conn
	once sync.Once
	eof  chan struct{}
}

func (c *eofSignalConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.once.Do(func() { close(c.eof) })
	}
	return n, err
}

func TestListenAndServeSurfacesConnErrors(t *testing.T) {
	srv := NewServer(newV3Target(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eof := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServeWith(ln, func(conn net.Conn) net.Conn {
			return &eofSignalConn{Conn: conn, eof: eof}
		})
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(batchFrame(t, 1)[:3]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Shut the listener down only once the serve loop has observed the
	// truncation; closing earlier would race it into a clean shutdown.
	<-eof
	ln.Close()
	got := <-errc
	if got == nil {
		t.Fatal("ListenAndServe swallowed the connection error")
	}
	if !strings.Contains(got.Error(), "truncated") {
		t.Fatalf("ListenAndServe error %q, want truncation", got)
	}
}
