package bench

import (
	"fmt"
	"net"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/remote"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// remoteLatency is the injected one-way link latency of E12's
// high-latency sweep point (the paper's USB-debugger regime);
// cmd/hsbench overrides it via SetRemoteLatency (-latency flag).
var remoteLatency = 500 * time.Microsecond

// SetRemoteLatency sets the injected one-way link latency of the
// remote-protocol experiment's slow leg (values < 0 leave the
// default; 0 collapses the sweep to the loopback point).
func SetRemoteLatency(d time.Duration) {
	if d >= 0 {
		remoteLatency = d
	}
}

// e12Firmware is a small exploration workload with enough MMIO and
// context-switch traffic to expose the wire protocol: k symbolic
// branches fan out 2^k paths, and every path runs a write-heavy
// driver loop against the remote peripheral — the register-programming
// pattern (burst of stores, occasional status read) that batching is
// built for: each burst coalesces into one frame and the read is
// answered from the same exchange.
func e12Firmware() string {
	src := `
_start:
		li r8, 0x40000000
		li r1, 0x100
		addi r2, r0, 3
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
`
	for i := 0; i < 3; i++ {
		src += fmt.Sprintf(`
		lbu r4, %d(r1)
		andi r4, r4, 1
		beq r4, r0, skip%d
		addi r7, r7, 1
skip%d:
`, i, i, i)
	}
	src += `
		addi r10, r0, 8
work:
		sw r7, 0(r8)       ; program the peripheral: burst of stores
		sw r10, 0(r8)
		sw r7, 0(r8)
		sw r10, 0(r8)
		sw r7, 0(r8)
		sw r10, 0(r8)
		addi r10, r10, -1
		bne r10, r0, work
		lw r6, 0(r8)       ; one status read per path
		halt
`
	return src
}

func e12Periphs() []target.PeriphConfig {
	return []target.PeriphConfig{{Name: "g", Periph: "gpio"}}
}

// e12Result is one leg of the comparison.
type e12Result struct {
	rep        *core.Report
	wall       time.Duration
	wire       remote.ClientStats
	retransmit uint64
}

// e12Local runs the workload against an in-process simulator — the
// zero-wire control leg.
func e12Local() (*e12Result, error) {
	a, err := core.Setup(core.SetupConfig{
		Firmware:    e12Firmware(),
		Peripherals: e12Periphs(),
		Engine: core.Config{
			Mode:            core.ModeHardSnap,
			Searcher:        symexec.DFS{},
			MaxInstructions: 2_000_000,
			Workers:         1,
		},
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := a.Engine.Run()
	if err != nil {
		return nil, err
	}
	return &e12Result{rep: rep, wall: time.Since(start)}, nil
}

// e12Remote runs the same workload with the simulator hosted behind
// the v3 server on a localhost TCP socket, both directions of the
// link delayed by the given one-way latency.
func e12Remote(latency time.Duration) (*e12Result, error) {
	root, err := target.NewSimulator("sim0", &vtime.Clock{}, e12Periphs())
	if err != nil {
		return nil, err
	}
	srv := remote.NewServer(root)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() {
		_ = srv.ListenAndServeWith(ln, func(c net.Conn) net.Conn {
			return remote.NewLatencyConn(c, latency)
		})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	client, err := remote.Connect(remote.NewLatencyConn(conn, latency), nil)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	a, err := core.Setup(core.SetupConfig{
		Firmware:    e12Firmware(),
		Peripherals: e12Periphs(),
		Target:      client,
		Engine: core.Config{
			Mode:            core.ModeHardSnap,
			Searcher:        symexec.DFS{},
			MaxInstructions: 2_000_000,
			Workers:         1,
		},
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := a.Engine.Run()
	if err != nil {
		return nil, err
	}
	ws := client.WireStats()
	return &e12Result{
		rep:        rep,
		wall:       time.Since(start),
		wire:       ws,
		retransmit: ws.Retransmits,
	}, nil
}

// The one-op-per-frame v2 protocol's E12 leg, as EXPERIMENTS.md
// recorded it at PR 4. The protocol is deterministic, so these were
// the same at every latency; the code that produced them (the v2
// client and the v2 cost emulation inside the v3 client) was deleted
// in PR 12 and the constants stand in for the live leg.
const (
	e12V2Frames      = 2144
	e12V2StateBytes  = 5600
	e12V2VirtualTime = 562870 * time.Microsecond
	e12V2Label       = "remote-v2 (recorded at PR 4, code deleted in PR 12)"
)

// E12's absolute budgets for the v3 leg: what it measures with the
// fixed binary snapshot bodies and new chunks inlined on save (PR 18;
// 49 frames and 200 gob state bytes before). Frames and snapshot bytes
// are deterministic, so any growth is a protocol regression.
const (
	e12V3MaxFrames     = 48
	e12V3MaxStateBytes = 154
)

// E12 regenerates the remote-protocol study: the same exploration run
// over an in-process target (control) and over the batched+pipelined
// v3 protocol, at zero injected latency and at the configured
// high-latency point, beside the recorded row of the one-op-per-frame
// v2 protocol it replaced. The analysis results must be identical on
// every live leg — the protocol may only change how fast hardware is
// reached, never what the engine concludes — and every gate is on a
// deterministic quantity (paths, bugs, virtual time, frames, bytes).
func E12() (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "remote-protocol latency: batched/pipelined v3 vs one-op-per-frame v2",
		Columns: []string{"leg", "one-way latency", "frames", "retransmits",
			"state bytes", "paths", "bugs", "virtual time", "wall clock"},
		Notes: []string{
			"frames ≈ wire round trips: v2 paid one per register op, IRQ sample and snapshot chunk; v3 coalesces each engine step into one batch frame and piggybacks IRQ/generation/clock mirrors on every response",
			"state bytes count snapshot payload actually moved; v3's digest negotiation skips chunks the peer already holds, v2 re-transferred full state every save/restore",
			"the remote-v2 row is recorded, not run: its frames, state bytes and virtual time are the deterministic values EXPERIMENTS.md captured at PR 4; the v2 code was deleted in PR 12",
			"gates (all deterministic): paths and bugs equal to local, v3 virtual time equal to local, v3 frames and state bytes within their recorded budgets, frame reduction vs the recorded v2 row ≥5x",
		},
	}

	local, err := e12Local()
	if err != nil {
		return nil, fmt.Errorf("E12 local: %w", err)
	}
	paths, bugs := len(local.rep.Finished), len(local.rep.Bugs())

	addRow := func(leg string, lat time.Duration, r *e12Result) {
		latCell := "-"
		if r.wire.Frames > 0 || lat > 0 {
			latCell = lat.String()
		}
		t.AddRow(leg, latCell,
			fmt.Sprintf("%d", r.wire.Frames),
			fmt.Sprintf("%d", r.retransmit),
			fmt.Sprintf("%d", r.wire.StateBytesSent+r.wire.StateBytesReceived),
			fmt.Sprintf("%d", len(r.rep.Finished)),
			fmt.Sprintf("%d", len(r.rep.Bugs())),
			dur(r.rep.VirtualTime), r.wall.Round(time.Microsecond).String())
	}
	addRow("local", 0, local)
	t.AddRow(e12V2Label, "any", fmt.Sprint(e12V2Frames), "0", fmt.Sprint(e12V2StateBytes),
		fmt.Sprint(paths), fmt.Sprint(bugs), dur(e12V2VirtualTime), "-")

	sweep := []time.Duration{0}
	if remoteLatency > 0 {
		sweep = append(sweep, remoteLatency)
	}
	// Deterministic, so the same at every latency; the note after the
	// loop reports the last leg's.
	var ratio, stateRatio float64
	for _, lat := range sweep {
		v3, err := e12Remote(lat)
		if err != nil {
			return nil, fmt.Errorf("E12 v3 latency=%v: %w", lat, err)
		}
		addRow("remote-v3", lat, v3)
		if len(v3.rep.Finished) != paths || len(v3.rep.Bugs()) != bugs {
			return nil, fmt.Errorf("E12 v3 latency=%v: found %d paths/%d bugs, local found %d/%d",
				lat, len(v3.rep.Finished), len(v3.rep.Bugs()), paths, bugs)
		}
		if v3.rep.VirtualTime != local.rep.VirtualTime {
			return nil, fmt.Errorf("E12 v3 latency=%v: virtual time %v, local %v — the wire is distorting the time model",
				lat, v3.rep.VirtualTime, local.rep.VirtualTime)
		}
		frames := v3.wire.Frames
		stateBytes := v3.wire.StateBytesSent + v3.wire.StateBytesReceived
		if frames > e12V3MaxFrames || stateBytes > e12V3MaxStateBytes {
			return nil, fmt.Errorf("E12 v3 latency=%v: %d frames / %d state bytes, budget %d / %d",
				lat, frames, stateBytes, e12V3MaxFrames, e12V3MaxStateBytes)
		}
		ratio = float64(e12V2Frames) / float64(max(frames, 1))
		if ratio < 5 {
			return nil, fmt.Errorf("E12 latency=%v: v3 must cut round trips ≥5x vs the recorded v2 row, got %.1fx (%d vs %d frames)",
				lat, ratio, e12V2Frames, frames)
		}
		p := fmt.Sprintf("lat%dus.", lat.Microseconds())
		t.AddMetric(p+"v3_frames", float64(frames), "frames")
		t.AddMetric(p+"frame_reduction", ratio, "x")
		t.AddMetric(p+"v3_state_bytes", float64(stateBytes), "bytes")
		stateRatio = float64(e12V2StateBytes) / float64(max(stateBytes, 1))
		t.AddMetric(p+"state_byte_reduction", stateRatio, "x")
		t.AddMetric(p+"v3_wall", float64(v3.wall.Nanoseconds()), "ns")
		t.AddMetric(p+"v3_chunks_skipped", float64(v3.wire.ChunksSkipped), "chunks")
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"v3 vs the recorded v2 row: %.1fx fewer frames, %.1fx fewer state bytes", ratio, stateRatio))
	t.AddMetric("paths", float64(paths), "paths")
	t.AddMetric("bugs", float64(bugs), "bugs")
	return t, nil
}
