// Command hsbench regenerates the paper's evaluation tables and
// figures (experiments E1-E18; see DESIGN.md for the experiment
// index).
//
// Usage:
//
//	hsbench            # run every experiment
//	hsbench e1 e4      # run selected experiments
//	hsbench -list      # list experiments
//	hsbench -json e4   # machine-readable metrics (JSON array)
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of the
// selected experiments (inspect with `go tool pprof`). -latency sets
// the injected one-way link latency of the remote-protocol experiment
// (E12).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hardsnap/internal/bench"
	"hardsnap/internal/buildinfo"
	"hardsnap/internal/sim"
)

// runOpts carries the CLI configuration into run.
type runOpts struct {
	list        bool
	jsonOut     bool
	interp      bool
	workers     int
	fuzzWorkers int
	latency     time.Duration
	cpuProfile  string
	memProfile  string
	args        []string
}

func main() {
	var opts runOpts
	flag.BoolVar(&opts.list, "list", false, "list experiments and exit")
	flag.BoolVar(&opts.jsonOut, "json", false,
		"emit machine-readable metrics as a JSON array of {experiment, metric, value, unit}")
	flag.BoolVar(&opts.interp, "interp", false,
		"run every experiment on the interpreter RTL engine instead of compiled bytecode")
	flag.IntVar(&opts.workers, "workers", 0,
		"cap the worker counts swept by the scaling experiment (E11); 0 keeps the default sweep")
	flag.IntVar(&opts.fuzzWorkers, "fuzz-workers", 0,
		"parallel fuzz workers for the hybrid-fuzzing experiment (E18); 0 keeps the default")
	flag.DurationVar(&opts.latency, "latency", -1,
		"injected one-way link latency of the remote-protocol experiment (E12), e.g. 500us; negative keeps the default")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "",
		"write a CPU profile of the selected experiments to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "",
		"write a heap profile (after the experiments complete) to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("hsbench"))
		return
	}
	opts.args = flag.Args()
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "hsbench:", err)
		os.Exit(1)
	}
}

func run(opts runOpts) error {
	if opts.interp {
		sim.SetDefaultEngine(sim.EngineInterp)
	}
	bench.SetMaxWorkers(opts.workers)
	bench.SetFuzzWorkers(opts.fuzzWorkers)
	bench.SetRemoteLatency(opts.latency)
	if opts.list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	var selected []bench.Experiment
	if len(opts.args) == 0 {
		selected = bench.All()
	} else {
		for _, id := range opts.args {
			e, ok := bench.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}
	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	metrics := []bench.Metric{}
	for i, e := range selected {
		if !opts.jsonOut && i > 0 {
			fmt.Println()
		}
		table, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := table.CheckFloors(); err != nil {
			return err
		}
		if opts.jsonOut {
			metrics = append(metrics, table.Metrics...)
			continue
		}
		fmt.Print(table)
	}
	if opts.memProfile != "" {
		f, err := os.Create(opts.memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(metrics)
	}
	return nil
}
