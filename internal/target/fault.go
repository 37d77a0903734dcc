package target

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultSchedule is a deterministic, seedable description of link
// misbehavior — the paper's USB3/JTAG transport made hostile. The
// zero value injects nothing. The same schedule applied to the same
// operation sequence reproduces the same faults, so fault-injection
// runs are exactly repeatable.
type FaultSchedule struct {
	// Seed initializes the fault PRNG.
	Seed int64
	// DropRate is the probability a request frame is lost (the
	// client observes a timeout).
	DropRate float64
	// CorruptRate is the probability a frame arrives bit-flipped.
	// On checksummed links corruption is detected and surfaces as a
	// transient retransmit, never as a wrong value.
	CorruptRate float64
	// LatencyJitter adds a uniform extra delay in [0, LatencyJitter)
	// to every transaction.
	LatencyJitter time.Duration
	// StallEvery, when non-zero, stalls every Nth transaction for
	// StallTime (bus arbitration hiccups, USB scheduling gaps).
	StallEvery uint64
	// StallTime is the duration of each stall.
	StallTime time.Duration
	// FailAfter, when non-zero, kills the link permanently after
	// that many transactions: every later one times out. A client
	// on such a link spends its retry budget and fails the operation
	// with a transient error.
	FailAfter uint64
}

// injector draws a FaultSchedule's verdicts, one per link
// transaction, for FaultConn.
type injector struct {
	sched FaultSchedule
	rng   *rand.Rand
	ops   uint64
}

func newInjector(s FaultSchedule) *injector {
	return &injector{sched: s, rng: rand.New(rand.NewSource(s.Seed))}
}

// verdict is what the schedule does to one transaction.
type verdict uint8

const (
	deliver verdict = iota
	linkDown
	drop
	corrupt
)

// next consumes one scheduled transaction of n bytes (0 when the
// transaction has no byte form): its verdict, the jitter and stall
// delay it suffers, and for a corrupted one of n > 0 bytes the bit to
// flip (-1 otherwise). The PRNG draw order — jitter, drop, corrupt,
// bit — is the determinism contract: the same seed reproduces the same
// faults.
func (in *injector) next(n int) (v verdict, delay time.Duration, bit int) {
	in.ops++
	if in.sched.LatencyJitter > 0 {
		delay = time.Duration(in.rng.Int63n(int64(in.sched.LatencyJitter)))
	}
	if in.sched.StallEvery > 0 && in.sched.StallTime > 0 && in.ops%in.sched.StallEvery == 0 {
		delay += in.sched.StallTime
	}
	switch {
	case in.sched.FailAfter > 0 && in.ops > in.sched.FailAfter:
		return linkDown, delay, -1
	case in.sched.DropRate > 0 && in.rng.Float64() < in.sched.DropRate:
		return drop, delay, -1
	case in.sched.CorruptRate > 0 && in.rng.Float64() < in.sched.CorruptRate:
		if n > 0 {
			return corrupt, delay, in.rng.Intn(n * 8)
		}
		return corrupt, delay, -1
	}
	return deliver, delay, -1
}

// FaultConn wraps a net.Conn with deterministic frame-level fault
// injection for the remote protocol: dropped writes (the peer never
// sees the frame and the reader times out), bit-flipped frames
// (caught by the protocol CRC) and real-time latency jitter. After
// FailAfter frames the link goes permanently silent.
//
// Drops and corruption are frame-atomic (one Write/Read call = one
// frame in the remote protocol), so a retried transaction never
// desynchronizes the stream.
type FaultConn struct {
	net.Conn
	mu  sync.Mutex
	inj *injector
}

// NewFaultConn wraps conn with the given schedule.
func NewFaultConn(conn net.Conn, sched FaultSchedule) *FaultConn {
	return &FaultConn{Conn: conn, inj: newInjector(sched)}
}

// decide consumes one scheduled transaction of n bytes, sleeping its
// delay.
func (c *FaultConn) decide(n int) (verdict, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, delay, bit := c.inj.next(n)
	time.Sleep(delay)
	return v, bit
}

// Write sends one frame, possibly dropping or corrupting it.
func (c *FaultConn) Write(b []byte) (int, error) {
	v, bit := c.decide(len(b))
	if v == linkDown || v == drop {
		// Swallow the frame: the peer's read times out.
		return len(b), nil
	}
	if bit >= 0 {
		mut := append([]byte(nil), b...)
		mut[bit/8] ^= 1 << uint(bit%8)
		_, err := c.Conn.Write(mut)
		return len(b), err
	}
	return c.Conn.Write(b)
}

// Read receives one frame, possibly corrupting it in flight.
// (Inbound drops are modeled on the writer side, keeping frames
// atomic.)
func (c *FaultConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err != nil || n == 0 {
		return n, err
	}
	if _, bit := c.decide(n); bit >= 0 {
		b[bit/8] ^= 1 << uint(bit%8)
	}
	return n, err
}
