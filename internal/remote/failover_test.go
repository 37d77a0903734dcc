package remote

// Mid-run link failover: the exploration chaos harness severs worker
// connections while a parallel campaign runs over the v3 protocol,
// and the client's redial + re-attach + window-retransmit machinery
// must recover with byte-identical results — the remote leg of the
// crash-safety identity gates in internal/core.

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// failoverFirmware branches on four symbolic bits (16 paths, so the
// two-worker fan-out really distributes subtrees) and does per-path
// MMIO work against the remote gpio. The software assertion fails on
// exactly one path (all four bits set).
const failoverFirmware = `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1           ; make [0x100] symbolic
		lbu r4, 0(r1)
		li r8, 0x40000000
		andi r5, r4, 1
		beq r5, r0, b1
		nop
b1:
		andi r5, r4, 2
		beq r5, r0, b2
		nop
b2:
		andi r5, r4, 4
		beq r5, r0, b3
		nop
b3:
		andi r5, r4, 8
		beq r5, r0, work
		nop
work:
		sw r4, 0(r8)      ; per-path MMIO traffic
		lw r6, 0(r8)
		addi r7, r0, 4
loop:
		sw r6, 0(r8)
		addi r7, r7, -1
		bne r7, r0, loop
		andi r5, r4, 15
		sltiu r1, r5, 15
		ecall 2           ; fails iff all four bits are set
		halt
`

// campaign runs the two-worker parallel campaign every test here
// shares, against tgt, or in process when tgt is nil.
func campaign(t *testing.T, tgt target.Interface, chaos *core.ChaosSchedule) *core.Report {
	t.Helper()
	a, err := core.Setup(core.SetupConfig{
		Firmware:    failoverFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Target:      tgt,
		Engine: core.Config{
			Mode:              core.ModeHardSnap,
			Searcher:          symexec.BFS{},
			MaxInstructions:   1_000_000,
			Workers:           2,
			Chaos:             chaos,
			MaxWorkerRestarts: 50,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// remoteRun drives the campaign against a fresh v3 server over real
// TCP (no latency model: retransmitted frames must not change virtual
// time, and the identity assertions include vt).
func remoteRun(t *testing.T, chaos *core.ChaosSchedule) (*core.Report, ClientStats) {
	t.Helper()
	tg, err := target.NewSimulator("remote-sim", &vtime.Clock{}, []target.PeriphConfig{
		{Name: "gpio0", Periph: "gpio"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := v3TCP(t, tg)
	c.MaxRetries = 8
	c.Backoff = 200 * time.Microsecond
	rep := campaign(t, c, chaos)
	return rep, c.WireStats()
}

// TestParallelRemoteFailoverIdentity is the wire's identity chain. The
// undisturbed v3 run must match the in-process run's bugs, paths and
// virtual time within its recorded frame and state-byte budget (both
// deterministic, so growth is a protocol regression). A run with every
// subtree's link severed mid-run must then match the undisturbed one,
// having actually reconnected.
func TestParallelRemoteFailoverIdentity(t *testing.T) {
	const maxFrames, maxStateBytes = 88, 308
	local := campaign(t, nil, nil)
	clean, cws := remoteRun(t, nil)
	if len(clean.Bugs()) != 1 {
		t.Fatalf("clean remote bugs: %d, want 1", len(clean.Bugs()))
	}
	if got, want := core.Fingerprint(clean), core.Fingerprint(local); got != want {
		t.Errorf("remote run diverged from in-process run:\nlocal:  %s\nremote: %s\npaths %d vs %d, vt %v vs %v",
			want, got, len(local.Finished), len(clean.Finished), local.VirtualTime, clean.VirtualTime)
	}
	if state := cws.StateBytesSent + cws.StateBytesReceived; cws.Frames > maxFrames || state > maxStateBytes {
		t.Errorf("wire moved %d frames / %d state bytes, budget %d / %d",
			cws.Frames, state, maxFrames, maxStateBytes)
	}

	rep, ws := remoteRun(t, &core.ChaosSchedule{Seed: 3, SeverRate: 1})
	if got, want := core.Fingerprint(rep), core.Fingerprint(clean); got != want {
		t.Errorf("severed run diverged from clean run:\nclean:   %s\nsevered: %s\npaths %d vs %d, vt %v vs %v",
			want, got, len(clean.Finished), len(rep.Finished),
			clean.VirtualTime, rep.VirtualTime)
	}
	if rep.Recovery.FailoverEvents == 0 {
		t.Errorf("no failover events recorded: %+v", rep.Recovery)
	}
	if ws.Reconnects == 0 {
		t.Errorf("links severed but no reconnects counted: %+v", ws)
	}
}

// TestSeverLinkRecovers: a severed client transparently redials,
// re-attaches its session and finishes the operation in flight.
func TestSeverLinkRecovers(t *testing.T) {
	tg := newV3Target(t)
	c, _ := v3TCP(t, tg)
	c.MaxRetries = 8
	c.Backoff = 200 * time.Microsecond
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpio.WriteReg(0, 0xAB); err != nil {
		t.Fatal(err)
	}
	if err := c.SeverLink(); err != nil {
		t.Fatal(err)
	}
	v, err := gpio.ReadReg(0)
	if err != nil {
		t.Fatalf("read across severed link: %v", err)
	}
	if v != 0xAB {
		t.Fatalf("read %#x after reconnect, want 0xAB", v)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if ws := c.WireStats(); ws.Reconnects == 0 {
		t.Fatalf("recovered without counting a reconnect: %+v", ws)
	}
}

// TestRecoverRetryFatalShortCircuit: when the redialed server rejects
// the session with a fatal error, the client surfaces it immediately
// — one dial, no retry-budget burn on an incurable failure.
func TestRecoverRetryFatalShortCircuit(t *testing.T) {
	tg := newV3Target(t)
	c, _ := v3TCP(t, tg)
	c.MaxRetries = 8
	c.Backoff = 200 * time.Microsecond

	// A stand-in server that answers every attach with a fatal,
	// typed rejection (as a real server does for a design mismatch).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				kind, seq, _, err := readFrame(conn)
				if err != nil || kind != kAttach {
					return
				}
				m := respMeta{status: vstatusErr}
				body := append([]byte{byte(target.Fatal)}, "design mismatch"...)
				_ = writeFrame(conn, kResp, seq, respPayload(m, body))
			}(conn)
		}
	}()

	var dials atomic.Int32
	c.Dial = func() (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", ln.Addr().String())
	}
	if err := c.SeverLink(); err != nil {
		t.Fatal(err)
	}
	gpio, err := c.Port("gpio0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = gpio.ReadReg(0)
	if err == nil {
		t.Fatal("read succeeded against a fatally rejecting server")
	}
	if target.IsTransient(err) {
		t.Fatalf("fatal rejection surfaced as transient: %v", err)
	}
	if !strings.Contains(err.Error(), "design mismatch") {
		t.Fatalf("server's typed error lost: %v", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("fatal rejection was retried: %d dials, want 1", n)
	}
}
