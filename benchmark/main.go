// Command benchmark is the repository's performance benchmark: seven
// workloads that each load a different layer, end-to-end metrics on
// both clocks (host time of the simulator, virtual time of the
// modelled testbed) and per-layer metrics from a separate traced run.
// README.md in this directory has the tables and their rationale.
//
// Contract mode (what BENCHMARK.json's command runs):
//
//	go run ./benchmark --workload fuzz-sw --seed 1 --seconds 18 --trace 0
//
// runs reps of one workload for about --seconds and prints one JSON
// object as its last line. Full mode (no --workload) runs every
// workload -reps times, interleaved, with a traced rep after every
// other one, prints the tables and writes a report for -compare:
//
//	go run ./benchmark -out a.json
//	go run ./benchmark -compare a.json b.json
//
// Load model: batch, closed loop, one client. Every rep is its own OS
// process (this binary re-executed with -child), so set-up is cold as
// a CLI user pays it and peak memory belongs to one workload.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -update-golden rewrites the embedded file,
// relative to the repository root the benchmark is run from.
const goldenPath = "benchmark/golden.json"

// scratchRoot holds per-rep scratch directories (campaign journal,
// traced corpus). It sits inside the checkout, because the benchmark
// contract allows no write outside it, and is git-ignored. The smoke
// test points it at its own temporary directory.
var scratchRoot = ".bench_build"

// repResult is what one child process reports on its last stdout line.
type repResult struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Traced   bool   `json:"traced"`
	// TimedStartUnixNano is the wall-clock instant the timed call
	// began; the parent subtracts its own spawn instant to get the
	// cold set-up time, process start included.
	TimedStartUnixNano int64   `json:"timed_start_unix_nano"`
	SetupS             float64 `json:"setup_s"`
	WallS              float64 `json:"wall_s"`
	CPUS               float64 `json:"cpu_s"`
	Work               int     `json:"work"`
	VirtS              float64 `json:"virt_s"`
	MaxRSSMB           float64 `json:"max_rss_mb"`
	Fingerprint        string  `json:"fingerprint"`
	// Failure is why the rep failed ("" if it did not).
	Failure string             `json:"failure"`
	Layer   map[string]float64 `json:"layer"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in contract mode")
		seed         = flag.Int64("seed", 1, "seed of every input generator")
		seconds      = flag.Float64("seconds", 18, "contract mode: how long to keep running reps")
		trace        = flag.Int("trace", 0, "contract mode: 1 reports per-layer metrics from traced reps")
		reps         = flag.Int("reps", 7, "full mode: untraced reps per workload; half as many traced ones are added")
		out          = flag.String("out", "", "full mode: write the report JSON here")
		compare      = flag.Bool("compare", false, "compare two full-mode reports: -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "full mode: rewrite "+goldenPath+" (semantics changes only)")
		child        = flag.String("child", "", "internal: run one rep of this workload")
		rep          = flag.Int("rep", 0, "internal: rep index")
		traced       = flag.Bool("traced", false, "internal: trace this rep")
		spans        = flag.String("spans", "", "internal/debug: write the traced rep's spans here")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = childMain(*child, *rep, *seed, *traced, *spans)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: -compare a.json b.json")
		} else {
			err = compareMain(flag.Arg(0), flag.Arg(1))
		}
	case *workloadName != "":
		err = contractMain(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = fullMain(*seed, *reps, *out, *updateGolden)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// ---- child: one rep ---------------------------------------------------

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set, from VmHWM in
// /proc/self/status. Not ru_maxrss: on exec Linux folds the old
// address space's peak into it, and Go's fork shares the parent's
// address space until exec, so a child's ru_maxrss starts at its
// parent's peak.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runRep sets a workload up, times its run and, on traced reps, adds
// the span and probe metrics. It is the one code path behind the
// benchmark, the traced run and the smoke test.
func runRep(w *workload, rep int, seed int64, scale float64, traced bool, spansPath string) (res repResult) {
	processStart := time.Now()
	res = repResult{Workload: w.name, Rep: rep, Traced: traced}
	fail := func(err error) repResult {
		res.Failure = err.Error()
		return res
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(scratchRoot, w.name+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	e := &env{seed: seed, scale: scale, tmp: tmp, setup: -1}
	if traced {
		e.tr = newTracer(rep)
	}
	root := e.tr.begin(kRep, -1)
	e.setup = e.tr.begin(kSetup, root)
	p, err := w.prepare(e)
	e.tr.end(e.setup)
	if err != nil {
		return fail(fmt.Errorf("set-up: %w", err))
	}
	if p.done != nil {
		defer p.done()
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	run := e.tr.begin(kRun, root)
	t0 := time.Now()
	o, err := p.run()
	wall := time.Since(t0)
	e.tr.end(run)
	cpu1 := cpuSeconds()
	rss, rssErr := peakRSSMB()
	runtime.ReadMemStats(&m1)
	e.tr.end(root)
	if err != nil {
		return fail(fmt.Errorf("run: %w", err))
	}
	if rssErr != nil {
		return fail(rssErr)
	}

	res.TimedStartUnixNano = t0.UnixNano()
	res.SetupS = t0.Sub(processStart).Seconds()
	res.WallS = wall.Seconds()
	res.CPUS = cpu1 - cpu0
	res.Work = o.work
	res.VirtS = o.virt.Seconds()
	res.MaxRSSMB = rss
	res.Fingerprint = o.fingerprint()
	res.Layer = o.layer
	work := float64(o.work)
	o.layer["virt.time_s"] = res.VirtS
	o.layer["virt.work_per_s"] = ratio(work, res.VirtS)
	o.layer["harness.alloc_kb_per_work"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, work)
	o.layer["harness.mallocs_per_work"] = ratio(float64(m1.Mallocs-m0.Mallocs), work)
	o.layer["harness.gc_cpu_share"] = m1.GCCPUFraction
	o.layer["core.par_cpu_ratio"] = ratio(res.CPUS, res.WallS)

	for _, name := range mustBeZero {
		if v := o.layer[name]; v != 0 {
			return fail(fmt.Errorf("%s = %v, want 0", name, v))
		}
	}
	if p.verify != nil {
		if err := p.verify(o); err != nil {
			return fail(fmt.Errorf("verify: %w", err))
		}
	}
	if traced {
		spanMetrics(e.tr, o, wall.Nanoseconds())
		if err := p.probe(o, wall.Nanoseconds()); err != nil {
			return fail(fmt.Errorf("probe: %w", err))
		}
		if spansPath != "" {
			if err := e.tr.write(spansPath); err != nil {
				return fail(err)
			}
		}
	}
	return res
}

func childMain(name string, rep int, seed int64, traced bool, spansPath string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res := runRep(w, rep, seed, 1, traced, spansPath)
	return json.NewEncoder(os.Stdout).Encode(res)
}

// ---- parent: spawning and aggregating reps ---------------------------

// childTimeout bounds one rep; a healthy rep takes about two seconds.
const childTimeout = 120 * time.Second

// spawnChild runs one rep at full size in a fresh process and waits
// for it.
func spawnChild(w *workload, rep int, seed int64, traced bool) repResult {
	res := repResult{Workload: w.name, Rep: rep, Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		res.Failure = err.Error()
		return res
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", w.name, "-rep", strconv.Itoa(rep), "-seed", strconv.FormatInt(seed, 10),
		"-traced="+strconv.FormatBool(traced))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		res.Failure = fmt.Sprintf("child: %v", err)
		return res
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		res.Failure = fmt.Sprintf("child output: %v", err)
		return res
	}
	if res.Failure == "" {
		// Cold set-up as the user pays it: exec, runtime start and the
		// workload's own set-up, up to the start of the timed call.
		res.SetupS = float64(res.TimedStartUnixNano-spawned.UnixNano()) / 1e9
	}
	return res
}

// summary aggregates one workload's reps.
type summary struct {
	Workload  string `json:"workload"`
	Unit      string `json:"unit"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures lists why reps failed.
	Failures    []string `json:"failures,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	// EndToEnd maps metric name to the stats of the untraced reps.
	EndToEnd map[string]stat `json:"end_to_end"`
	// Layer maps per-layer metric name to the median of the traced
	// reps (empty when none ran).
	Layer map[string]float64 `json:"layer,omitempty"`
}

// stat summarizes one metric over reps. With a handful of samples no
// tail percentile has ten samples beyond it, so nothing above the
// quartiles is reported; Q1 and Q3 are what -compare takes the
// run-to-run spread from.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newStat(vs []float64) stat {
	if len(vs) == 0 {
		return stat{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return stat{Median: median(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile of a sorted slice, by the exclusive method of Python's
// statistics.quantiles, which the driver's spread check uses.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	lo := min(max(int(math.Floor(pos)), 0), n-2)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize folds reps into a summary. golden is the expected
// fingerprint ("" = only rep-to-rep agreement is checked).
func summarize(w *workload, reps []repResult, golden string) summary {
	s := summary{Workload: w.name, Unit: w.unit, Attempted: len(reps), EndToEnd: map[string]stat{}}
	want := golden
	var setup, rate, cpu, rss, virtRate, wall, tracedWall []float64
	layer := map[string][]float64{}
	for _, r := range reps {
		if r.Failure == "" {
			if want == "" {
				want = r.Fingerprint
			}
			if r.Fingerprint != want {
				r.Failure = fmt.Sprintf("fingerprint %.12s differs from %.12s", r.Fingerprint, want)
			}
		}
		if r.Failure != "" {
			s.Failed++
			s.Failures = append(s.Failures, fmt.Sprintf("rep %d: %s", r.Rep, r.Failure))
			continue
		}
		s.Fingerprint = r.Fingerprint
		if r.Traced {
			tracedWall = append(tracedWall, r.WallS)
			for k, v := range r.Layer {
				layer[k] = append(layer[k], v)
			}
			continue
		}
		work := float64(r.Work)
		setup = append(setup, r.SetupS)
		wall = append(wall, r.WallS)
		rate = append(rate, ratio(work, r.WallS))
		cpu = append(cpu, ratio(r.CPUS*1e6, work))
		rss = append(rss, r.MaxRSSMB)
		virtRate = append(virtRate, ratio(work, r.VirtS))
	}
	s.EndToEnd["setup_s"] = newStat(setup)
	s.EndToEnd["host_work_per_s"] = newStat(rate)
	s.EndToEnd["cpu_us_per_work"] = newStat(cpu)
	s.EndToEnd["max_rss_mb"] = newStat(rss)
	s.EndToEnd["virt_work_per_s"] = newStat(virtRate)
	s.EndToEnd["fail_share"] = stat{Median: ratio(float64(s.Failed), float64(s.Attempted)), N: s.Attempted}

	if len(tracedWall) > 0 {
		s.Layer = map[string]float64{}
		for k, vs := range layer {
			s.Layer[k] = newStat(vs).Median
		}
		// Traced and untraced reps alternate in time, so the two
		// medians saw the same host.
		if ws := newStat(wall); ws.N > 0 {
			s.Layer["harness.trace_overhead"] = newStat(tracedWall).Median/ws.Median - 1
			s.Layer["harness.rep_spread"] = (ws.Max - ws.Min) / ws.Median
		}
	}
	return s
}

// goldenFor returns the fingerprint a rep of w must produce, or "" at
// seeds golden.json does not cover.
func goldenFor(w *workload, seed int64) (string, error) {
	if seed != 1 {
		return "", nil
	}
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return g[w.name], nil
}

// ---- contract mode ---------------------------------------------------

// contractResult is the one JSON object the driver reads.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractMain(name string, seed int64, seconds float64, traced bool) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	golden, err := goldenFor(w, seed)
	if err != nil {
		return err
	}
	// Reps run back to back until the next one would overshoot the
	// budget by more than it undershoots; a traced run alternates
	// untraced and traced reps so the overhead compares like with like.
	minReps := 3
	if traced {
		minReps = 4
	}
	start := time.Now()
	var reps []repResult
	for i := 0; ; i++ {
		repStart := time.Now()
		reps = append(reps, spawnChild(w, i, seed, traced && i%2 == 1))
		elapsed, last := time.Since(start).Seconds(), time.Since(repStart).Seconds()
		if len(reps) >= minReps && elapsed+last/2 > seconds {
			break
		}
	}
	s := summarize(w, reps, golden)
	for _, f := range s.Failures {
		fmt.Fprintln(os.Stderr, "benchmark:", w.name, f)
	}
	res := contractResult{
		Correct:   s.Failed == 0,
		Attempted: s.Attempted,
		Failed:    s.Failed,
		Metrics:   map[string]contractMetric{},
	}
	if traced {
		for _, m := range layerMetrics {
			res.Metrics[m.Name] = contractMetric{s.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m.Name] = contractMetric{s.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// ---- full mode -------------------------------------------------------

// report is what full mode writes and -compare reads.
type report struct {
	Seed      int64     `json:"seed"`
	Reps      int       `json:"reps"`
	Workloads []summary `json:"workloads"`
}

func fullMain(seed int64, reps int, out string, updateGolden bool) error {
	if reps < 1 {
		return errors.New("-reps must be at least 1")
	}
	if updateGolden && seed != 1 {
		return errors.New("-update-golden needs the default seed")
	}
	// Round-robin across workloads, so a noisy-neighbour burst is
	// spread over every row instead of charged to one. A traced round
	// follows every other untraced one, so the per-layer figures and
	// harness.trace_overhead are medians over the same stretch of time
	// as the end-to-end ones.
	results := make([][]repResult, len(workloads))
	round := func(traced bool) {
		for wi := range workloads {
			w := &workloads[wi]
			i := len(results[wi])
			fmt.Fprintf(os.Stderr, "%s rep %d traced=%v\n", w.name, i, traced)
			results[wi] = append(results[wi], spawnChild(w, i, seed, traced))
		}
	}
	for i := 0; i < reps; i++ {
		round(false)
		if i%2 == 0 {
			round(true)
		}
	}
	rep := report{Seed: seed, Reps: reps}
	failed := 0
	newGolden := map[string]string{}
	for wi := range workloads {
		w := &workloads[wi]
		golden := ""
		if !updateGolden {
			var err error
			if golden, err = goldenFor(w, seed); err != nil {
				return err
			}
		}
		s := summarize(w, results[wi], golden)
		failed += s.Failed
		newGolden[w.name] = s.Fingerprint
		rep.Workloads = append(rep.Workloads, s)
	}
	printReport(os.Stdout, &rep)
	if out != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d reps failed", failed)
	}
	if updateGolden {
		data, err := json.MarshalIndent(newGolden, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.FromSlash(goldenPath), append(data, '\n'), 0o644)
	}
	return nil
}
