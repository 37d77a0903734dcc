package target

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/vtime"
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
	// that many transactions: every later one times out. This is the
	// persistent-failure scenario that triggers target failover.
	FailAfter uint64
}

func (s FaultSchedule) active() bool { return s != FaultSchedule{} }

// injector applies a FaultSchedule to in-process target links,
// charging delays to the virtual clock.
type injector struct {
	sched FaultSchedule
	rng   *rand.Rand
	ops   uint64
}

func newInjector(s FaultSchedule) *injector {
	return &injector{sched: s, rng: rand.New(rand.NewSource(s.Seed))}
}

// op models one link transaction: it charges jitter/stall latency and
// returns a transient error if the transaction is lost. Faults fire
// before the operation reaches the hardware, so a retried operation
// applies exactly once.
func (in *injector) op(clock *vtime.Clock) error {
	in.ops++
	if in.sched.LatencyJitter > 0 {
		clock.Advance(time.Duration(in.rng.Int63n(int64(in.sched.LatencyJitter))))
	}
	if in.sched.StallEvery > 0 && in.sched.StallTime > 0 && in.ops%in.sched.StallEvery == 0 {
		clock.Advance(in.sched.StallTime)
	}
	if in.sched.FailAfter > 0 && in.ops > in.sched.FailAfter {
		clock.Advance(vtime.LinkTimeout)
		return transientf("link", "request timed out (link down)")
	}
	if in.sched.DropRate > 0 && in.rng.Float64() < in.sched.DropRate {
		clock.Advance(vtime.LinkTimeout)
		return transientf("link", "dropped frame (timeout)")
	}
	if in.sched.CorruptRate > 0 && in.rng.Float64() < in.sched.CorruptRate {
		return transientf("link", "corrupted frame (bad CRC)")
	}
	return nil
}

// FaultPort wraps a bus.Port with deterministic fault injection: lost
// transactions surface as transient typed errors, latency is charged
// to the virtual clock when one is attached (or slept in real time
// otherwise). It lets any port-level consumer — the remote server,
// a custom harness — be tested against a misbehaving link.
type FaultPort struct {
	inner bus.Port
	clock *vtime.Clock
	inj   *injector
}

// NewFaultPort wraps port. clock may be nil, in which case injected
// latency is slept in real time instead of charged virtually.
func NewFaultPort(port bus.Port, clock *vtime.Clock, sched FaultSchedule) *FaultPort {
	return &FaultPort{inner: port, clock: clock, inj: newInjector(sched)}
}

var _ bus.Port = (*FaultPort)(nil)

func (p *FaultPort) fault() error {
	if p.clock != nil {
		return p.inj.op(p.clock)
	}
	var c vtime.Clock
	err := p.inj.op(&c)
	if d := c.Now(); d > 0 {
		time.Sleep(d)
	}
	return err
}

// ReadReg reads through the faulty link.
func (p *FaultPort) ReadReg(offset uint32) (uint32, error) {
	if err := p.fault(); err != nil {
		return 0, err
	}
	return p.inner.ReadReg(offset)
}

// WriteReg writes through the faulty link.
func (p *FaultPort) WriteReg(offset uint32, v uint32) error {
	if err := p.fault(); err != nil {
		return err
	}
	return p.inner.WriteReg(offset, v)
}

// IRQLevel samples the interrupt line through the faulty link.
func (p *FaultPort) IRQLevel() (bool, error) {
	if err := p.fault(); err != nil {
		return false, err
	}
	return p.inner.IRQLevel()
}

// Advance forwards clock advancement when the wrapped port supports
// it.
func (p *FaultPort) Advance(n uint64) error {
	if err := p.fault(); err != nil {
		return err
	}
	if adv, ok := p.inner.(interface{ Advance(uint64) error }); ok {
		return adv.Advance(n)
	}
	return fatalf("advance", "wrapped port does not support advance")
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

// decide consumes one scheduled transaction: (drop, corruptAt) where
// corruptAt < 0 means no corruption.
func (c *FaultConn) decide(n int) (dead, drop bool, corruptAt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.inj
	in.ops++
	corruptAt = -1
	if in.sched.LatencyJitter > 0 {
		time.Sleep(time.Duration(in.rng.Int63n(int64(in.sched.LatencyJitter))))
	}
	if in.sched.StallEvery > 0 && in.sched.StallTime > 0 && in.ops%in.sched.StallEvery == 0 {
		time.Sleep(in.sched.StallTime)
	}
	if in.sched.FailAfter > 0 && in.ops > in.sched.FailAfter {
		return true, false, -1
	}
	if in.sched.DropRate > 0 && in.rng.Float64() < in.sched.DropRate {
		return false, true, -1
	}
	if in.sched.CorruptRate > 0 && in.rng.Float64() < in.sched.CorruptRate && n > 0 {
		return false, false, in.rng.Intn(n * 8)
	}
	return false, false, -1
}

// Write sends one frame, possibly dropping or corrupting it.
func (c *FaultConn) Write(b []byte) (int, error) {
	dead, drop, corrupt := c.decide(len(b))
	if dead || drop {
		// Swallow the frame: the peer's read times out.
		return len(b), nil
	}
	if corrupt >= 0 {
		mut := append([]byte(nil), b...)
		mut[corrupt/8] ^= 1 << uint(corrupt%8)
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
	_, _, corrupt := c.decide(n)
	if corrupt >= 0 && corrupt/8 < n {
		b[corrupt/8] ^= 1 << uint(corrupt%8)
	}
	return n, err
}
