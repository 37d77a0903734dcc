package remote

import (
	"net"
	"sync"
	"time"
)

// latencyConn delays every Write by a fixed one-way latency without
// blocking the writer: writes are timestamped into a queue and a pump
// goroutine delivers them in order when due. This models link
// *latency* (the quantity pipelining hides), not throughput; wrapping
// both endpoints of a connection with delay d gives a round-trip time
// of 2d.
type latencyConn struct {
	net.Conn
	delay time.Duration
	ch    chan delayed
	wg    sync.WaitGroup
	mu    sync.Mutex
	werr  error
	open  bool
}

type delayed struct {
	data []byte
	due  time.Time
}

// newLatencyConn wraps a connection so each Write is delivered after
// the given one-way delay, to reproduce the paper's USB-debugger link
// latency on a loopback socket.
func newLatencyConn(c net.Conn, delay time.Duration) net.Conn {
	if delay <= 0 {
		return c
	}
	l := &latencyConn{Conn: c, delay: delay, ch: make(chan delayed, 1024), open: true}
	l.wg.Add(1)
	go l.pump()
	return l
}

func (l *latencyConn) pump() {
	defer l.wg.Done()
	for d := range l.ch {
		if wait := time.Until(d.due); wait > 0 {
			time.Sleep(wait)
		}
		if _, err := l.Conn.Write(d.data); err != nil {
			l.mu.Lock()
			if l.werr == nil {
				l.werr = err
			}
			l.mu.Unlock()
		}
	}
}

func (l *latencyConn) Write(p []byte) (int, error) {
	l.mu.Lock()
	if !l.open {
		l.mu.Unlock()
		return 0, net.ErrClosed
	}
	if err := l.werr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.mu.Unlock()
	buf := append([]byte(nil), p...)
	l.ch <- delayed{data: buf, due: time.Now().Add(l.delay)}
	return len(p), nil
}

func (l *latencyConn) Close() error {
	l.mu.Lock()
	if !l.open {
		l.mu.Unlock()
		return nil
	}
	l.open = false
	l.mu.Unlock()
	close(l.ch)
	l.wg.Wait() // deliver queued writes before closing the stream
	return l.Conn.Close()
}
