package main

import (
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/core"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/remote"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// env is what one rep hands a workload: the generator seed, the size
// scale (1 in the benchmark, ~0.01 in the smoke test), the tracer
// (nil on untraced reps) and a scratch directory inside the checkout.
type env struct {
	seed  int64
	scale float64
	tr    *tracer
	tmp   string
	// setup is the open set-up span, parent of the set-up child spans.
	setup int32
}

// size scales a default workload size, keeping at least min.
func (e *env) size(n, min int) int {
	if v := int(float64(n) * e.scale); v > min {
		return v
	}
	return min
}

// outcome is what the timed call produced.
type outcome struct {
	work int           // execs, finished paths or blocks
	virt time.Duration // virtual time of the modelled testbed
	// print lists the deterministic outputs; their hash is the rep's
	// fingerprint.
	print []string
	// layer holds the counters the program's own result structs
	// return, under their per-layer metric names.
	layer map[string]float64
	// workers is how many goroutines shared the run (0 means 1): the
	// capacity shares are taken of. solverNS and journalNS are the
	// host time the report attributes to those layers, summed over
	// workers.
	workers   int
	solverNS  int64
	journalNS int64
}

// capacityNS is the host time the run had available: wall times the
// goroutines that shared it.
func (o *outcome) capacityNS(wallNS int64) float64 {
	if o.workers > 1 {
		return float64(wallNS) * float64(o.workers)
	}
	return float64(wallNS)
}

func (o *outcome) fingerprint() string {
	h := sha256.Sum256([]byte(strings.Join(o.print, "\n")))
	return hex.EncodeToString(h[:])
}

// prepared is a set-up workload: run is the timed call; verify (every
// rep, after run, untimed) checks outputs beyond the fingerprint;
// probe (traced reps only) adds the direct-call probe metrics, using
// inputs captured from this very run; done releases sockets and
// goroutines.
type prepared struct {
	run    func() (*outcome, error)
	verify func(o *outcome) error
	probe  func(o *outcome, wallNS int64) error
	done   func()
}

// workload is one named benchmark input.
type workload struct {
	name    string
	unit    string
	why     string
	prepare func(e *env) (*prepared, error)
}

var workloads = []workload{
	{"fuzz-sw", "execs",
		"software-only snapshot-reset fuzzing: vm does all the work (full-RAM restore per exec), no hardware",
		func(e *env) (*prepared, error) {
			return prepareFuzz(e, steadyFirmware, nil, e.size(30000, 200), 8)
		}},
	{"fuzz-hw", "execs",
		"same loop with crc32 on a simulator target: bus, target, sim MMIO and the read side of the snapshot store",
		func(e *env) (*prepared, error) {
			return prepareFuzz(e, hwFirmware,
				[]target.PeriphConfig{{Name: "crc0", Periph: "crc32"}}, e.size(25000, 200), 2)
		}},
	{"explore-switch", "paths",
		"random scheduling forces a hardware context switch per step, each saving a distinct record: write side of the snapshot pipeline plus symexec forks",
		func(e *env) (*prepared, error) {
			return prepareExplore(e, exploreSpec{
				firmware: scalingWorkload(e.depth(8), 40),
				periph:   target.PeriphConfig{Name: "g", Periph: "gpio"},
				fpga:     true,
				searcher: randomSearcher,
			})
		}},
	{"explore-solver", "paths",
		"DFS over branches on bit-blasted multiplies: the solver does nearly all the work, one hardware save",
		func(e *env) (*prepared, error) {
			return prepareExplore(e, exploreSpec{
				firmware: hashBranchWorkload(e.depth(10)),
				periph:   target.PeriphConfig{Name: "g", Periph: "gpio"},
				fpga:     true,
				searcher: func(int64) symexec.Searcher { return symexec.DFS{} },
			})
		}},
	{"explore-par", "paths",
		"two supervised workers over a shared store, solver cache and fsynced journal: core/parallel.go and journal under contention",
		func(e *env) (*prepared, error) {
			return prepareExplore(e, exploreSpec{
				firmware: crcScalingWorkload(e.depth(9), 30),
				periph:   target.PeriphConfig{Name: "crc0", Periph: "crc32"},
				fpga:     true,
				searcher: randomSearcher,
				workers:  2,
				journal:  true,
			})
		}},
	{"explore-remote", "paths",
		"the explore-switch tree with the target behind the v3 wire protocol on loopback TCP: remote framing and batching",
		func(e *env) (*prepared, error) {
			return prepareExplore(e, exploreSpec{
				firmware: scalingWorkload(e.depth(6), 40),
				periph:   target.PeriphConfig{Name: "g", Periph: "gpio"},
				searcher: randomSearcher,
				remote:   true,
			})
		}},
	{"sim-aes", "blocks",
		"aes128 driven through register ports and checked against crypto/aes: sim and rtl/bc busy logic, the accuracy reference",
		prepareAES},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// depth scales a branch depth k (2^k paths): the smoke test's 1%
// size is about seven levels shallower, but never below the eight
// paths a two-worker run needs before it fans out and journals.
func (e *env) depth(k int) int {
	for s := e.scale; s < 1 && k > 3; s *= 2 {
		k--
	}
	return k
}

// ---- fuzz-sw, fuzz-hw ------------------------------------------------

// steadyFirmware is the software-only steady-state firmware of
// internal/fuzz/perf_test.go: an input-dependent loop plus a few
// branches, always halting.
const steadyFirmware = `
_start:
		addi r10, r0, 50
init:
		addi r10, r10, -1
		bne r10, r0, init
		ecall 6
		li r1, 0x800
		addi r2, r0, 8
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 15
loop:
		addi r4, r4, -1
		bge r4, r0, loop
		lbu r5, 1(r1)
		addi r6, r0, 100
		blt r5, r6, low
		addi r7, r0, 1
low:
		halt
`

// hwFirmware feeds one input byte through the CRC peripheral and
// aborts on 0xA5 (one crash bucket).
const hwFirmware = `
_start:
		li r8, 0x40000000  ; crc32 base
		addi r4, r0, 1
		sw r4, 8(r8)       ; init
		ecall 6
		li r1, 0x800
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		sw r4, 0(r8)       ; feed byte
wait:
		lw r5, 12(r8)
		bne r5, r0, wait   ; poll busy
		lw r6, 4(r8)       ; read crc
		lbu r4, 0(r1)
		addi r5, r0, 0xA5
		bne r4, r5, ok
		abort
ok:
		halt
`

func prepareFuzz(e *env, src string, periphs []target.PeriphConfig, execs, inputLen int) (*prepared, error) {
	sp := e.tr.begin(kAssemble, e.setup)
	prog, err := asm.Assemble(src, 0)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := fuzz.Config{
		Program:     prog,
		Peripherals: periphs,
		Reset:       fuzz.ResetSnapshot,
		MaxExecs:    execs,
		InputLen:    inputLen,
		Seed:        e.seed,
		Workers:     1,
	}
	if e.tr != nil {
		// The traced rep persists the corpus so the vm probes replay
		// inputs this campaign actually kept.
		cfg.CorpusDir = filepath.Join(e.tmp, "corpus")
	}
	p := &prepared{}
	p.run = func() (*outcome, error) {
		res, err := fuzz.Run(cfg)
		if err != nil {
			return nil, err
		}
		buckets := make([]string, len(res.Crashes))
		for i, c := range res.Crashes {
			buckets[i] = fmt.Sprintf("%v@%#x", c.Stop, c.PC)
		}
		sort.Strings(buckets)
		o := &outcome{
			work: res.Execs,
			virt: res.VirtTime,
			print: []string{
				fmt.Sprintf("execs=%d edges=%d corpus=%d virt=%d", res.Execs, res.Edges, res.Corpus, res.VirtTime),
				"crashes=" + strings.Join(buckets, ","),
			},
			layer: map[string]float64{
				"fuzz.edges":            float64(res.Edges),
				"fuzz.corpus":           float64(res.Corpus),
				"fuzz.crash_buckets":    float64(len(res.Crashes)),
				"fuzz.hw_restores":      float64(res.HWRestores),
				"fuzz.delta_ratio":      ratio(float64(res.DeltaRestores), float64(res.HWRestores)),
				"fuzz.reset_virt_share": ratio(float64(res.ResetTime), float64(res.VirtTime)),
				"target.restores":       float64(res.HWRestores),
				"target.delta_ratio":    ratio(float64(res.DeltaRestores), float64(res.HWRestores)),
				"target.snap_bytes":     float64(res.HWSnapshotBytes),
				"core.restore_skip_ratio": ratio(float64(res.RestoresSkipped),
					float64(res.RestoresSkipped+res.HWRestores)),
			},
		}
		return o, nil
	}
	p.probe = func(o *outcome, wallNS int64) error {
		return probeFuzz(e, cfg, o, wallNS)
	}
	return p, nil
}

// ---- explore-* -------------------------------------------------------

// scalingWorkload is E11's exploration workload (internal/bench): a
// short init prefix, k symbolic branches (2^k paths), then a per-path
// MMIO work loop. One change from E11: the value written is unique to
// the path and the iteration (E11 writes the path's taken-branch
// count, k+1 values in all), so every hardware save holds content the
// snapshot store has not seen and takes its miss path.
func scalingWorkload(k, work int) string {
	src := fmt.Sprintf(`
_start:
		addi r10, r0, 20
init:
		addi r10, r10, -1
		bne r10, r0, init
		li r8, 0x40000000
		li r9, 0xAB
		sw r9, 0(r8)       ; program the peripheral once
		li r1, 0x100
		addi r2, r0, %d
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
`, k)
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		lbu r4, %d(r1)
		andi r4, r4, 1
		slli r7, r7, 1
		beq r4, r0, skip%d
		addi r7, r7, 1
skip%d:
`, i, i, i)
	}
	src += fmt.Sprintf(`
		addi r10, r0, %d
work:
		slli r6, r7, 8
		add r6, r6, r10
		sw r6, 0(r8)       ; per-path hardware interaction
		lw r6, 0(r8)
		addi r10, r10, -1
		bne r10, r0, work
		halt
`, work)
	return src
}

// crcScalingWorkload is E11's CRC counterpart: symbolic input bytes
// branch the tree, then every path streams its input through the CRC
// engine.
func crcScalingWorkload(k, rounds int) string {
	src := fmt.Sprintf(`
_start:
		li r8, 0x40000000
		addi r4, r0, 1
		sw r4, 8(r8)       ; enable the CRC engine
		li r1, 0x100
		addi r2, r0, %d
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
`, k)
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		lbu r4, %d(r1)
		andi r4, r4, 1
		beq r4, r0, cskip%d
		addi r7, r7, 1
cskip%d:
`, i, i, i)
	}
	src += fmt.Sprintf(`
		addi r10, r0, %d
feed:
		lbu r4, 0(r1)
		sw r4, 0(r8)       ; stream a byte into the CRC
		addi r10, r10, -1
		bne r10, r0, feed
		lw r6, 4(r8)       ; read the digest (not branched on)
		halt
`, rounds)
	return src
}

// hashBranchWorkload sends one symbolic word through two multiplies
// and an xor-shift (a bijection, so every branch combination stays
// feasible) and then branches on k bits of the product, stride 3:
// 2^k paths whose feasibility queries all bit-blast the multipliers,
// which defeats the solver's rewriting and slicing stages.
func hashBranchWorkload(k int) string {
	src := `
_start:
		li r8, 0x40000000
		li r9, 0xAB
		sw r9, 0(r8)       ; program the peripheral once
		li r1, 0x100
		addi r2, r0, 4
		addi r3, r0, 1
		ecall 1
		lw r4, 0(r1)
		li r5, 0x9E3779B1
		mul r4, r4, r5
		srli r6, r4, 15
		xor r4, r4, r6
		li r5, 0x85EBCA77
		mul r4, r4, r5
		addi r7, r0, 0
`
	for i := 0; i < k; i++ {
		src += fmt.Sprintf(`
		srli r6, r4, %d
		andi r6, r6, 1
		beq r6, r0, hskip%d
		addi r7, r7, 1
hskip%d:
`, 3*i, i, i)
	}
	src += `
		sw r7, 0(r8)
		halt
`
	return src
}

// randomSearcher is the seeded random scheduler; it is stateful, so
// every rig gets its own.
func randomSearcher(seed int64) symexec.Searcher { return symexec.NewRandom(seed) }

type exploreSpec struct {
	firmware string
	periph   target.PeriphConfig
	fpga     bool
	searcher func(seed int64) symexec.Searcher
	workers  int
	journal  bool
	// remote puts the target behind remote.NewServer on loopback TCP
	// and drives it through a v3 client.
	remote bool
}

// rig is one wired-up exploration: the analysis plus the handles the
// counters and probes read afterwards.
type rig struct {
	analysis *core.Analysis
	root     *target.Target
	client   *remote.TargetClient
	done     func()
}

func buildRig(e *env, spec exploreSpec, prog *asm.Program) (*rig, error) {
	periphs := []target.PeriphConfig{spec.periph}
	r := &rig{done: func() {}}
	var err error
	sp := e.tr.begin(kTargetBuild, e.setup)
	if spec.fpga {
		r.root, err = target.NewFPGA("fpga0", &vtime.Clock{}, periphs, false)
	} else {
		r.root, err = target.NewSimulator("sim0", &vtime.Clock{}, periphs)
	}
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var vehicle target.Interface = r.root
	if spec.remote {
		sp = e.tr.begin(kConnect, e.setup)
		r.client, r.done, err = connectRemote(r.root)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		vehicle = r.client
	}
	cfg := core.Config{
		Mode:            core.ModeHardSnap,
		Searcher:        spec.searcher(e.seed),
		MaxInstructions: 5_000_000,
		Workers:         spec.workers,
	}
	if spec.journal {
		cfg.JournalPath = filepath.Join(e.tmp, "campaign.hsj")
	}
	sp = e.tr.begin(kCoreSetup, e.setup)
	r.analysis, err = core.SetupProgram(core.SetupConfig{
		Peripherals: periphs,
		Target:      e.tr.wrap(vehicle),
		Engine:      cfg,
	}, prog)
	e.tr.end(sp)
	if err != nil {
		r.done()
		return nil, err
	}
	return r, nil
}

// connectRemote serves root on a loopback listener and dials it with
// a v3 client. done closes the client, then the listener, and waits
// for the server goroutine to drain.
func connectRemote(root *target.Target) (*remote.TargetClient, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := remote.NewServer(root)
	served := make(chan struct{})
	go func() {
		defer close(served)
		// Per-connection errors after the client hangs up are not
		// the benchmark's business; failures show on the client.
		_ = srv.ListenAndServe(ln)
	}()
	stop := func() {
		_ = ln.Close()
		<-served
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		stop()
		return nil, nil, err
	}
	client, err := remote.Connect(conn, nil)
	if err != nil {
		_ = conn.Close()
		stop()
		return nil, nil, err
	}
	return client, func() {
		_ = client.Close()
		stop()
	}, nil
}

// pathSignatures is the sorted status@pc+steps list of a report.
func pathSignatures(rep *core.Report) []string {
	sigs := make([]string, len(rep.Finished))
	for i, st := range rep.Finished {
		sigs[i] = fmt.Sprintf("%v@%#x+%d", st.Status, st.PC, st.Steps)
	}
	sort.Strings(sigs)
	return sigs
}

func prepareExplore(e *env, spec exploreSpec) (*prepared, error) {
	sp := e.tr.begin(kAssemble, e.setup)
	prog, err := asm.Assemble(spec.firmware, 0)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r, err := buildRig(e, spec, prog)
	if err != nil {
		return nil, err
	}
	var report *core.Report
	p := &prepared{done: r.done}
	p.run = func() (*outcome, error) {
		rep, err := r.analysis.Engine.Run()
		if err != nil {
			return nil, err
		}
		report = rep
		sigs := pathSignatures(rep)
		o := &outcome{
			work: len(rep.Finished),
			virt: rep.VirtualTime,
			print: []string{
				"paths=" + strings.Join(sigs, ","),
				fmt.Sprintf("bugs=%d virt=%d saves=%d restores=%d", len(rep.Bugs()), rep.VirtualTime,
					rep.Snapshots.HWSaves, rep.Snapshots.HWRestores),
			},
			layer:     exploreCounters(rep),
			workers:   spec.workers,
			solverNS:  rep.Solver.WallNS,
			journalNS: int64(rep.Recovery.JournalWall),
		}
		if r.client != nil {
			ws := r.client.WireStats()
			o.layer["remote.frames"] = float64(ws.Frames)
			o.layer["remote.ops_per_frame"] = ratio(float64(ws.Ops), float64(ws.Frames))
			o.layer["remote.state_bytes"] = float64(ws.StateBytesSent + ws.StateBytesReceived)
			o.layer["remote.chunks_skipped"] = float64(ws.ChunksSkipped)
			o.layer["remote.retransmits"] = float64(ws.Retransmits)
			o.layer["remote.reconnects"] = float64(ws.Reconnects)
		}
		return o, nil
	}
	var twin targetTotals
	if spec.remote {
		// The wire may change how fast hardware is reached, never what
		// the engine concludes: every rep re-runs the tree on an
		// in-process twin and compares paths and bugs. On traced reps
		// the twin is decorated too; remote.wire_share is the target
		// time the wire added over it.
		p.verify = func(o *outcome) error {
			local := spec
			local.remote = false
			twinEnv := env{seed: e.seed, scale: e.scale, tmp: e.tmp, setup: -1}
			if e.tr != nil {
				twinEnv.tr = newTracer(e.tr.rep)
				twinEnv.tr.begin(kRun, -1)
			}
			twinRig, err := buildRig(&twinEnv, local, prog)
			if err != nil {
				return err
			}
			defer twinRig.done()
			rep, err := twinRig.analysis.Engine.Run()
			if err != nil {
				return err
			}
			if twinEnv.tr != nil {
				twin = twinEnv.tr.targetTotals()
			}
			got, want := strings.Join(pathSignatures(report), ","), strings.Join(pathSignatures(rep), ",")
			if got != want || len(report.Bugs()) != len(rep.Bugs()) {
				return fmt.Errorf("remote run (%d paths, %d bugs) and its local twin (%d paths, %d bugs) disagree on the path signatures",
					len(report.Finished), len(report.Bugs()), len(rep.Finished), len(rep.Bugs()))
			}
			return nil
		}
	}
	p.probe = func(o *outcome, wallNS int64) error {
		if spec.remote {
			o.layer["remote.wire_share"] = ratio(float64(e.tr.targetTotals().allNS()-twin.allNS()), float64(wallNS))
		}
		return probeExplore(e, spec, prog, r, o)
	}
	return p, nil
}

// exploreCounters maps a core.Report onto per-layer metric names.
func exploreCounters(rep *core.Report) map[string]float64 {
	sn, mg, st, sv := rep.Snapshots, rep.Snapshots.Manager, rep.Snapshots.Store, rep.Solver
	return map[string]float64{
		"target.saves":       float64(sn.HWSaves),
		"target.restores":    float64(sn.HWRestores),
		"target.delta_ratio": ratio(float64(sn.DeltaRestores), float64(sn.HWRestores)),
		"target.snap_bytes":  float64(sn.BytesMoved),

		"snapshot.puts":         float64(st.Puts),
		"snapshot.gets":         float64(st.Gets),
		"snapshot.dedup_ratio":  ratio(float64(st.DedupHits), float64(st.DedupHits+st.PeriphStored)),
		"snapshot.bytes_stored": float64(st.BytesStored),
		"snapshot.share_ratio":  ratio(float64(st.BytesShared), float64(st.BytesStored+st.BytesShared)),

		"core.context_switches":   float64(rep.Stats.ContextSwitches),
		"core.save_skip_ratio":    ratio(float64(mg.SavesSkipped), float64(mg.SavesSkipped+mg.Saves)),
		"core.restore_skip_ratio": ratio(float64(mg.RestoresSkipped), float64(mg.RestoresSkipped+mg.Restores)),
		"core.seed_virt_share":    ratio(float64(rep.SeedVirtualTime), float64(rep.VirtualTime)),
		"core.worker_restarts":    float64(rep.Recovery.WorkerRestarts),

		"symexec.instructions": float64(rep.Exec.Instructions),
		"symexec.forks":        float64(rep.Exec.Forks),
		"symexec.concretized":  float64(rep.Exec.Concretized),

		"solver.queries":         float64(sv.Queries),
		"solver.query_us":        ratio(float64(sv.WallNS)/1e3, float64(sv.Queries)),
		"solver.cache_hit_ratio": rep.SolverCache.HitRate(),
		"solver.model_hit_ratio": ratio(float64(sv.ModelHits), float64(sv.Queries)),
		"solver.conflicts_props": float64(sv.Conflicts + sv.Propagations),
		"solver.unknowns":        float64(rep.Exec.SolverUnknowns),

		"journal.records": float64(rep.Recovery.JournalRecords),
		"journal.bytes":   float64(rep.Recovery.JournalBytes),
	}
}

// ---- sim-aes ---------------------------------------------------------

// aes128 register map (internal/periph/aes.go): control 0x00 (bit 0
// starts), status 0x04 (bit 1 = done), key 0x10.., plaintext 0x20..,
// ciphertext 0x30.., big-endian words.
const (
	aesCtrl   = 0x00
	aesStatus = 0x04
	aesKey    = 0x10
	aesPT     = 0x20
	aesCT     = 0x30
)

func prepareAES(e *env) (*prepared, error) {
	periphs := []target.PeriphConfig{{Name: "aes0", Periph: "aes128"}}
	clock := &vtime.Clock{}
	sp := e.tr.begin(kTargetBuild, e.setup)
	root, err := target.NewSimulator("sim0", clock, periphs)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	tgt := e.tr.wrap(root)
	port, err := tgt.Port("aes0")
	if err != nil {
		return nil, err
	}
	blocks := e.size(12000, 20)
	rng := rand.New(rand.NewSource(e.seed))
	p := &prepared{}
	p.run = func() (*outcome, error) {
		digest := sha256.New()
		mismatches := 0
		var key, pt, got, want [16]byte
		for b := 0; b < blocks; b++ {
			rng.Read(key[:])
			rng.Read(pt[:])
			for i := uint32(0); i < 4; i++ {
				if err := port.WriteReg(aesKey+4*i, binary.BigEndian.Uint32(key[4*i:])); err != nil {
					return nil, err
				}
				if err := port.WriteReg(aesPT+4*i, binary.BigEndian.Uint32(pt[4*i:])); err != nil {
					return nil, err
				}
			}
			if err := port.WriteReg(aesCtrl, 1); err != nil {
				return nil, err
			}
			for polls := 0; ; polls++ {
				status, err := port.ReadReg(aesStatus)
				if err != nil {
					return nil, err
				}
				if status&2 != 0 {
					break
				}
				if polls > 64 {
					return nil, errors.New("sim-aes: accelerator never finished")
				}
				if err := tgt.Advance(1); err != nil {
					return nil, err
				}
			}
			for i := uint32(0); i < 4; i++ {
				v, err := port.ReadReg(aesCT + 4*i)
				if err != nil {
					return nil, err
				}
				binary.BigEndian.PutUint32(got[4*i:], v)
			}
			block, err := aes.NewCipher(key[:])
			if err != nil {
				return nil, err
			}
			block.Encrypt(want[:], pt[:])
			if got != want {
				mismatches++
			}
			digest.Write(got[:])
		}
		ts := root.Stats()
		o := &outcome{
			work: blocks,
			virt: clock.Now(),
			print: []string{
				fmt.Sprintf("blocks=%d mismatches=%d virt=%d", blocks, mismatches, clock.Now()),
				"ciphertexts=" + hex.EncodeToString(digest.Sum(nil)),
			},
			layer: map[string]float64{
				"sim.aes_mismatch": float64(mismatches),
				"sim.cycles":       float64(ts.Cycles + ts.IOOps),
				"bus.mmio_ops":     float64(ts.IOOps),
				"target.io_ops":    float64(ts.IOOps),
			},
		}
		return o, nil
	}
	p.probe = func(o *outcome, wallNS int64) error {
		return probeAES(e, root, o)
	}
	return p, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
