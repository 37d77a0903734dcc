// Command hardsnap runs a hardware/software co-testing analysis:
// symbolic execution of HS32 firmware with Verilog peripherals in the
// loop and per-path hardware snapshots.
//
// Usage:
//
//	hardsnap -periph uart0=uart -periph timer0=timer firmware.s
//
// Flags select the consistency mode (hardsnap / naive-reboot /
// naive-shared), the state-selection heuristic, the hardware target
// (simulator or FPGA) and the concretization policy. -journal makes a
// parallel campaign crash-safe (append-only frontier journal);
// -resume continues a journaled campaign after an interrupt or crash.
// -farm submits the campaign to an hsfarm server instead of running
// it locally. The exit status is 2 when bugs are found, 3 when the
// run was interrupted (SIGINT/SIGTERM) with its journal flushed for
// resume.
//
// -fuzz switches from symbolic exploration to coverage-guided
// fuzzing of the same firmware and SoC: -workers parallel workers
// over snapshot resets, -hybrid for the concolic feedback loop,
// -corpus to persist the corpus and crash buckets across runs, -json
// for a machine-readable result. Exit status 2 means crashes were
// found. A flag of one mode set in the other is an error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/buildinfo"
	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/dist"
	"hardsnap/internal/farm"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/target"
)

// runOpts carries every knob of one CLI invocation.
type runOpts struct {
	Periphs   []target.PeriphConfig
	Asserts   []target.HWAssertion
	Mode      string
	Searcher  string
	FPGA      bool
	Readback  bool
	Policy    string
	MaxInstr  uint64
	Workers   int
	Fanout    int
	Verbose   bool
	ReportDir string
	// Journal enables campaign journaling to this path; Resume
	// continues the campaign journaled at this path.
	Journal string
	Resume  string
	// Farm submits the job to an hsfarm server at this address
	// instead of running locally; Tenant names the submitter.
	Farm   string
	Tenant string
	// Nodes fans the campaign's subtrees out to these dist workers
	// (comma-separated host:port list).
	Nodes string
	// Fuzz switches to coverage-guided fuzzing mode; the remaining
	// fields parameterize the campaign (see internal/fuzz).
	Fuzz         bool
	FuzzExecs    int
	FuzzInputLen int
	FuzzSeed     int64
	Hybrid       bool
	Corpus       string
	JSON         bool
	// Args is the positional firmware path.
	Args []string
}

// defaultOpts holds every flag's default: main registers the flags
// with these values, and a field that differs from its default is a
// flag the user set.
func defaultOpts() runOpts {
	return runOpts{
		Mode:         "hardsnap",
		Searcher:     "dfs",
		Policy:       "one",
		MaxInstr:     2_000_000,
		Workers:      1,
		Tenant:       "default",
		FuzzExecs:    1000,
		FuzzInputLen: 8,
		FuzzSeed:     1,
	}
}

func main() {
	opts := defaultOpts()
	var periphs periphFlag
	flag.Var(&periphs, "periph", "peripheral NAME=KIND (repeatable; kinds: gpio timer uart spi crc32 aes128 regfile)")
	var asserts assertFlag
	flag.Var(&asserts, "assert", "hardware property PERIPH:NAME:EXPR (repeatable, simulator target only)")
	flag.StringVar(&opts.Mode, "mode", opts.Mode, "consistency mode: hardsnap | naive-reboot | naive-shared | record-replay")
	flag.StringVar(&opts.Searcher, "searcher", opts.Searcher, "state selection: dfs | bfs | round-robin | random | coverage")
	flag.BoolVar(&opts.FPGA, "fpga", false, "host peripherals on the FPGA target")
	flag.BoolVar(&opts.Readback, "readback", false, "use FPGA readback snapshots instead of the scan chain")
	flag.StringVar(&opts.Policy, "concretize", opts.Policy, "boundary concretization policy: one | all")
	flag.Uint64Var(&opts.MaxInstr, "max-instructions", opts.MaxInstr, "total instruction budget")
	flag.IntVar(&opts.Workers, "workers", opts.Workers, "parallel exploration or fuzz workers (0 = one per CPU)")
	flag.IntVar(&opts.Fanout, "seed-fanout", 0, "seed-phase fan-out width (0 = workers x 4); deeper queues help -nodes runs hide link latency")
	flag.BoolVar(&opts.Verbose, "v", false, "print per-path detail")
	flag.StringVar(&opts.ReportDir, "report", "", "write per-bug crash reports (test vector, model, hardware snapshot) to this directory")
	flag.StringVar(&opts.Journal, "journal", "", "journal the parallel campaign to this file (crash-safe; resume with -resume)")
	flag.StringVar(&opts.Resume, "resume", "", "resume the journaled campaign at this file (workers default to the journaled count)")
	flag.StringVar(&opts.Farm, "farm", "", "submit the campaign to the hsfarm server at this address instead of running locally")
	flag.StringVar(&opts.Tenant, "tenant", opts.Tenant, "tenant name for -farm submissions")
	flag.StringVar(&opts.Nodes, "nodes", "", "distribute subtrees to these dist workers (comma-separated host:port; start each with hsfarm -dist)")
	flag.BoolVar(&opts.Fuzz, "fuzz", false, "coverage-guided fuzzing instead of symbolic exploration")
	flag.IntVar(&opts.FuzzExecs, "fuzz-execs", opts.FuzzExecs, "test-case budget for -fuzz, split across workers")
	flag.IntVar(&opts.FuzzInputLen, "fuzz-input-len", opts.FuzzInputLen, "test-case size in bytes for -fuzz")
	flag.Int64Var(&opts.FuzzSeed, "fuzz-seed", opts.FuzzSeed, "campaign rng seed for -fuzz (single-worker runs are byte-for-byte reproducible)")
	flag.BoolVar(&opts.Hybrid, "hybrid", false, "with -fuzz: solve frontier branches concolically and inject the models as seeds")
	flag.StringVar(&opts.Corpus, "corpus", "", "with -fuzz: persist corpus + crash buckets in this directory (suppressions.txt mutes known buckets)")
	flag.BoolVar(&opts.JSON, "json", false, "with -fuzz: emit the campaign result as JSON on stdout")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("hardsnap"))
		return
	}
	opts.Periphs = periphs
	opts.Asserts = asserts
	opts.Args = flag.Args()

	// SIGINT/SIGTERM cancel the run cleanly: in-flight subtrees stop,
	// the journal is flushed, and the exit status says "resumable".
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code, err := run(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hardsnap:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type periphFlag []target.PeriphConfig

func (p *periphFlag) String() string { return fmt.Sprintf("%v", []target.PeriphConfig(*p)) }

func (p *periphFlag) Set(s string) error {
	name, kind, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want NAME=KIND, got %q", s)
	}
	*p = append(*p, target.PeriphConfig{Name: name, Periph: kind})
	return nil
}

type assertFlag []target.HWAssertion

func (a *assertFlag) String() string { return fmt.Sprintf("%v", []target.HWAssertion(*a)) }

func (a *assertFlag) Set(s string) error {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return fmt.Errorf("want PERIPH:NAME:EXPR, got %q", s)
	}
	*a = append(*a, target.HWAssertion{Periph: parts[0], Name: parts[1], Expr: parts[2]})
	return nil
}

// buildJob compiles the CLI flags into a self-contained campaign job.
func buildJob(opts runOpts) (campaign.Job, error) {
	if len(opts.Args) != 1 {
		return campaign.Job{}, fmt.Errorf("usage: hardsnap [flags] firmware.s")
	}
	src, err := os.ReadFile(opts.Args[0])
	if err != nil {
		return campaign.Job{}, err
	}
	workers, err := workerCount(opts)
	if err != nil {
		return campaign.Job{}, err
	}
	job := campaign.Job{
		Firmware:         string(src),
		Peripherals:      opts.Periphs,
		Assertions:       opts.Asserts,
		Mode:             opts.Mode,
		Searcher:         opts.Searcher,
		FPGA:             opts.FPGA,
		Readback:         opts.Readback,
		Concretize:       opts.Policy,
		MaxInstructions:  opts.MaxInstr,
		Workers:          workers,
		SeedFanout:       opts.Fanout,
		KeepBugSnapshots: opts.ReportDir != "",
	}
	if err := job.Validate(); err != nil {
		return campaign.Job{}, err
	}
	return job, nil
}

// workerCount resolves -workers: 0 is one per CPU.
func workerCount(opts runOpts) (int, error) {
	switch {
	case opts.Workers < 0:
		return 0, fmt.Errorf("-workers must be >= 0, got %d", opts.Workers)
	case opts.Workers == 0:
		return core.AutoWorkers(), nil
	}
	return opts.Workers, nil
}

// checkModeFlags refuses a flag set away from its default in the mode
// that ignores it: the exploration flags under -fuzz, the fuzz flags
// without it, and -tenant without -farm.
func checkModeFlags(opts runOpts) error {
	d := defaultOpts()
	type flagSet struct {
		name string
		set  bool
	}
	explore := []flagSet{
		{"-farm", opts.Farm != d.Farm},
		{"-nodes", opts.Nodes != d.Nodes},
		{"-journal", opts.Journal != d.Journal},
		{"-resume", opts.Resume != d.Resume},
		{"-readback", opts.Readback != d.Readback},
		{"-assert", len(opts.Asserts) > 0},
		{"-report", opts.ReportDir != d.ReportDir},
		{"-mode", opts.Mode != d.Mode},
		{"-searcher", opts.Searcher != d.Searcher},
		{"-concretize", opts.Policy != d.Policy},
		{"-max-instructions", opts.MaxInstr != d.MaxInstr},
		{"-seed-fanout", opts.Fanout != d.Fanout},
	}
	fuzzOnly := []flagSet{
		{"-fuzz-execs", opts.FuzzExecs != d.FuzzExecs},
		{"-fuzz-input-len", opts.FuzzInputLen != d.FuzzInputLen},
		{"-fuzz-seed", opts.FuzzSeed != d.FuzzSeed},
		{"-hybrid", opts.Hybrid != d.Hybrid},
		{"-corpus", opts.Corpus != d.Corpus},
		{"-json", opts.JSON != d.JSON},
	}
	ignored, mode := fuzzOnly, "without -fuzz"
	if opts.Fuzz {
		ignored, mode = explore, "with -fuzz"
	}
	for _, f := range ignored {
		if f.set {
			return fmt.Errorf("%s does not apply %s", f.name, mode)
		}
	}
	if opts.Tenant != d.Tenant && opts.Farm == d.Farm {
		return fmt.Errorf("-tenant applies only with -farm")
	}
	return nil
}

func run(ctx context.Context, opts runOpts) (int, error) {
	if err := checkModeFlags(opts); err != nil {
		return 0, err
	}
	if opts.Fuzz {
		return runFuzz(opts)
	}
	job, err := buildJob(opts)
	if err != nil {
		return 0, err
	}
	if opts.Farm != "" {
		if opts.Journal != "" || opts.Resume != "" || opts.ReportDir != "" {
			return 0, fmt.Errorf("-journal, -resume and -report are local-run flags; the farm journals jobs itself")
		}
		if opts.Nodes != "" {
			return 0, fmt.Errorf("-farm and -nodes are mutually exclusive (the farm schedules its own capacity)")
		}
		return runFarm(ctx, opts, job)
	}

	var cam *core.Campaign
	journalPath := opts.Journal
	if opts.Resume != "" {
		if opts.Journal != "" {
			return 0, fmt.Errorf("-journal and -resume are mutually exclusive (a resumed campaign keeps appending to its own journal)")
		}
		cam, err = core.LoadCampaign(opts.Resume)
		if err != nil {
			return 0, err
		}
		journalPath = opts.Resume
		if opts.Workers <= 1 {
			// The journal knows the campaign's worker count; honor it
			// unless the user explicitly asked for more.
			job.Workers = cam.Header.Workers
		}
		fmt.Printf("resuming campaign %s: %d journaled subtree(s), %d workers\n",
			opts.Resume, len(cam.Results), job.Workers)
	}
	if opts.Journal != "" && job.Workers <= 1 {
		return 0, fmt.Errorf("-journal requires parallel exploration (-workers > 1)")
	}

	events := make(chan campaign.Event, 64)
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for ev := range events {
			if ev.Kind == campaign.EventStarted && len(opts.Periphs) > 0 {
				fmt.Printf("SoC: %d peripheral(s) on %s target\n", len(opts.Periphs), ev.Target)
				for _, line := range ev.SoC {
					fmt.Printf("  %s\n", line)
				}
			}
		}
	}()
	runOpts := campaign.RunOptions{
		Journal:   opts.Journal,
		Resume:    cam,
		Events:    events,
		ReportDir: opts.ReportDir,
	}
	if opts.Nodes != "" {
		// The subtrees run on the remote nodes; the merged report is
		// the one a local run yields.
		runOpts.Fanout = dist.Fanout(strings.Split(opts.Nodes, ","))
	}
	res, err := campaign.Runner{}.Run(ctx, job, runOpts)
	close(events)
	<-printed
	if errors.Is(err, core.ErrInterrupted) {
		if journalPath != "" {
			fmt.Fprintf(os.Stderr, "hardsnap: interrupted; journal flushed — continue with: hardsnap -resume %s %s\n",
				journalPath, opts.Args[0])
		} else {
			fmt.Fprintln(os.Stderr, "hardsnap: interrupted (no -journal; the run cannot be resumed)")
		}
		return 3, nil
	}
	if err != nil {
		return 0, err
	}
	return printResult(res, opts, journalPath), nil
}

// runFuzz runs the coverage-guided fuzzing mode: a local campaign
// over the same firmware and SoC layout the exploration modes use.
func runFuzz(opts runOpts) (int, error) {
	if len(opts.Args) != 1 {
		return 0, fmt.Errorf("usage: hardsnap -fuzz [flags] firmware.s")
	}
	workers, err := workerCount(opts)
	if err != nil {
		return 0, err
	}
	src, err := os.ReadFile(opts.Args[0])
	if err != nil {
		return 0, err
	}
	prog, err := asm.Assemble(string(src), 0)
	if err != nil {
		return 0, err
	}
	cfg := fuzz.Config{
		Program:     prog,
		Peripherals: opts.Periphs,
		FPGA:        opts.FPGA,
		Reset:       fuzz.ResetSnapshot,
		MaxExecs:    opts.FuzzExecs,
		InputLen:    opts.FuzzInputLen,
		Seed:        opts.FuzzSeed,
		Workers:     workers,
		Hybrid:      opts.Hybrid,
		CorpusDir:   opts.Corpus,
	}
	if opts.Verbose {
		cfg.Stats = os.Stderr
	}
	res, err := fuzz.Run(cfg)
	if err != nil {
		return 0, err
	}
	if opts.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 0, err
		}
	} else {
		fmt.Printf("fuzz: %d execs, %d workers, %d edges, corpus %d, virtual time %v (%.0f execs/vsec)\n",
			res.Execs, res.Workers, res.Edges, res.Corpus,
			res.VirtTime.Round(time.Microsecond), res.ExecsPerVirtSecond)
		if opts.Hybrid {
			fmt.Printf("hybrid: %d concolic replay(s), %d solved seed(s)\n",
				res.ConcolicRuns, res.SolvedSeeds)
		}
		if res.Suppressed > 0 {
			fmt.Printf("suppressed: %d crash occurrence(s) muted by %s\n",
				res.Suppressed, opts.Corpus)
		}
		for _, c := range res.Crashes {
			fmt.Printf("CRASH: %v at pc=%#x  input=%x  (hit %d time(s), first at exec %d)\n",
				c.Stop, c.PC, c.Input, c.Count, c.Exec)
		}
	}
	if len(res.Crashes) > 0 {
		return 2, nil
	}
	return 0, nil
}

// printResult renders the local-run report and returns the exit code.
func printResult(res *campaign.Result, opts runOpts, journalPath string) int {
	rep := res.Report
	fmt.Printf("\npaths: %d  instructions: %d  context switches: %d  virtual time: %v\n",
		len(rep.Finished), rep.Stats.Instructions, rep.Stats.ContextSwitches,
		rep.VirtualTime.Round(time.Microsecond))
	fmt.Printf("solver: %d queries in %v  (sliced %d, model hits %d, incremental reuses %d, conflicts %d, propagations %d)\n",
		rep.Solver.Queries, time.Duration(rep.Solver.WallNS).Round(time.Microsecond),
		rep.Solver.Sliced, rep.Solver.ModelHits, rep.Solver.IncrementalReuses,
		rep.Solver.Conflicts, rep.Solver.Propagations)
	if len(rep.Workers) > 0 {
		fmt.Printf("parallel: %d workers, seed phase %v, solver cache %.0f%% hit (%d/%d)\n",
			len(rep.Workers), rep.SeedVirtualTime.Round(time.Microsecond),
			100*rep.SolverCache.HitRate(), rep.SolverCache.Hits,
			rep.SolverCache.Hits+rep.SolverCache.Misses)
		for _, w := range rep.Workers {
			fmt.Printf("  worker %d: %d subtree(s), %d path(s), %v, %d save(s), %d restore(s), %d B moved\n",
				w.Worker, w.Subtrees, w.Paths, w.VirtualTime.Round(time.Microsecond),
				w.Traffic.HWSaves, w.Traffic.HWRestores, w.Traffic.BytesMoved)
		}
	}
	if len(rep.Nodes) > 0 {
		fmt.Printf("distributed: %d node(s)\n", len(rep.Nodes))
		for _, n := range rep.Nodes {
			fmt.Printf("  node %-21s %d subtree(s), %d path(s), %v, %d reconnect(s)\n",
				n.Node, n.Subtrees, n.Paths, n.VirtualTime.Round(time.Microsecond),
				n.Reconnects)
		}
	}
	rec := rep.Recovery
	if rec.WorkerRestarts > 0 || rec.Requeues > 0 || rec.FailoverEvents > 0 ||
		rec.PanicsRecovered > 0 || rec.ResumedSubtrees > 0 {
		fmt.Printf("recovery: %d worker restart(s), %d requeue(s), %d panic(s) recovered, %d failover(s), %d resumed subtree(s), recovery wall %v\n",
			rec.WorkerRestarts, rec.Requeues, rec.PanicsRecovered,
			rec.FailoverEvents, rec.ResumedSubtrees,
			rec.RecoveryWall.Round(time.Microsecond))
	}
	if rec.JournalRecords > 0 {
		fmt.Printf("journal: %d record(s), %d B written to %s\n",
			rec.JournalRecords, rec.JournalBytes, journalPath)
	}
	if opts.Verbose {
		for _, st := range rep.Finished {
			fmt.Printf("  path %-4d %-14v pc=%#x steps=%d", st.ID, st.Status, st.PC, st.Steps)
			if len(st.Console) > 0 {
				fmt.Printf(" console=%q", st.Console)
			}
			fmt.Println()
		}
	}
	for _, bug := range res.Bugs {
		fmt.Printf("BUG: %s at pc=%#x\n", bug.Status, bug.PC)
		if bug.Model != nil {
			fmt.Printf("     model: %v\n", bug.Model)
		}
	}
	if res.CrashReports > 0 {
		fmt.Printf("wrote %d crash report(s) to %s\n", res.CrashReports, opts.ReportDir)
	}
	if len(res.Bugs) > 0 {
		return 2
	}
	return 0
}

// runFarm submits the job to an hsfarm server, streams its progress
// and renders the result. Ctrl-C cancels the remote job.
func runFarm(ctx context.Context, opts runOpts, job campaign.Job) (int, error) {
	c, err := farm.Dial(opts.Farm)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	id, err := c.Submit(opts.Tenant, job)
	if err != nil {
		return 0, err
	}
	fmt.Printf("submitted job %s to %s (tenant %s)\n", id, opts.Farm, opts.Tenant)

	// An interrupt cancels the remote job on a second connection (the
	// first one is consumed by the stream below).
	watchdog := make(chan struct{})
	defer close(watchdog)
	go func() {
		select {
		case <-ctx.Done():
			if cc, err := farm.Dial(opts.Farm); err == nil {
				_ = cc.Cancel(id)
				cc.Close()
			}
		case <-watchdog:
		}
	}()

	err = c.Stream(id, func(ev campaign.Event) {
		switch ev.Kind {
		case campaign.EventStarted:
			if len(opts.Periphs) > 0 {
				fmt.Printf("SoC: %d peripheral(s) on %s target\n", len(opts.Periphs), ev.Target)
				for _, line := range ev.SoC {
					fmt.Printf("  %s\n", line)
				}
			}
		case campaign.EventBug:
			fmt.Printf("BUG: %s at pc=%#x\n", ev.Bug.Status, ev.Bug.PC)
			if ev.Bug.Model != nil {
				fmt.Printf("     model: %v\n", ev.Bug.Model)
			}
		}
	})
	if err != nil {
		return 0, err
	}

	// The stream only ends once the job is terminal; a fresh
	// connection fetches the authoritative outcome.
	rc, err := farm.Dial(opts.Farm)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	info, err := rc.Results(id)
	if err != nil {
		return 0, err
	}
	switch info.Status {
	case farm.StatusDone:
		res := info.Result
		if res == nil {
			return 0, fmt.Errorf("farm job %s is done but the reply carries no result", id)
		}
		fmt.Printf("\npaths: %d  instructions: %d  solver queries: %d  virtual time: %v\n",
			res.Paths, res.Instructions, res.SolverQueries, res.VirtualTime.Round(time.Microsecond))
		fmt.Printf("fingerprint: %s\n", res.Fingerprint)
		if len(res.Bugs) > 0 {
			return 2, nil
		}
		return 0, nil
	case farm.StatusCancelled:
		fmt.Fprintln(os.Stderr, "hardsnap: farm job cancelled")
		return 3, nil
	default:
		return 0, fmt.Errorf("farm job %s: %s", info.Status, info.Error)
	}
}
