// Package campaign turns one exploration run into a first-class,
// serializable object: a Job describes everything the analysis needs
// (firmware, peripherals, consistency mode, search strategy,
// budgets), a Runner executes it streaming typed progress events, and
// a Result carries the wire-friendly outcome.
//
// Runner.Run is the only path from a Job to a Result. Where the job
// runs is not part of the Job: RunOptions says it — local rigs by
// default, a pre-built (pooled or remote) target, or a node fan-out
// that internal/dist builds from node addresses — and none of it
// changes the Result's fingerprint. The hardsnap CLI compiles its
// flags into a Job; the farm accepts Jobs over the network and
// schedules them across tenants.
//
// The farm and dist wire protocols are newline-delimited JSON over one
// connection layer kept here: Conn on both ends, ConnServer's accept
// loop and connection registry on the serving one, and MessageReader's
// bound on every message read.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"hardsnap/internal/core"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
)

// Job is a complete, self-contained specification of one campaign.
// The zero values of the optional fields mean "default": a Job that
// only sets Firmware is valid. Jobs serialize to JSON for submission
// to the farm; two Jobs with equal Fingerprints describe identical
// runs.
type Job struct {
	// Firmware is the full HS32 assembly source text (not a path — a
	// job must be self-contained on the wire).
	Firmware string `json:"firmware"`
	// FirmwareBase is the load address (default 0).
	FirmwareBase uint32 `json:"firmware_base,omitempty"`
	// Peripherals are placed on the bus in order (see core.Setup).
	Peripherals []target.PeriphConfig `json:"peripherals,omitempty"`
	// Assertions are hardware properties checked every cycle
	// (simulator target only).
	Assertions []target.HWAssertion `json:"assertions,omitempty"`
	// Mode is the consistency mode: hardsnap | naive-reboot |
	// naive-shared | record-replay (default hardsnap).
	Mode string `json:"mode,omitempty"`
	// Searcher is the state-selection heuristic: dfs | bfs |
	// round-robin | random | coverage (default dfs).
	Searcher string `json:"searcher,omitempty"`
	// FPGA hosts the peripherals on the FPGA target; Readback selects
	// readback snapshots over the scan chain.
	FPGA     bool `json:"fpga,omitempty"`
	Readback bool `json:"readback,omitempty"`
	// Concretize is the boundary concretization policy: one | all
	// (default one).
	Concretize string `json:"concretize,omitempty"`
	// DisableSolverOpt turns the solver query-optimization stack off.
	DisableSolverOpt bool `json:"disable_solver_opt,omitempty"`
	// MaxInstructions bounds retired instructions (default 2M, the
	// CLI's historical default).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// Workers is the exploration worker count (default 1; negative is
	// invalid — resolve "all CPUs" with core.AutoWorkers before
	// building the job, so the spec stays machine-independent).
	Workers int `json:"workers,omitempty"`
	// SeedFanout overrides the seed-phase fan-out width (0 = Workers
	// x 4; see core.Config.SeedFanout). Part of the job identity: the
	// decomposition shapes the deterministic merge schedule.
	SeedFanout int `json:"seed_fanout,omitempty"`
	// MaxVirtualTime / MaxSolverQueries bound the run (0 =
	// unlimited). The farm clamps these to the submitting tenant's
	// remaining budget. A symbolic fork costs one solver query, so a
	// query budget (a tenant's quota included) admits about one fork
	// per query, twice what asking about both sides would.
	MaxVirtualTime   time.Duration `json:"max_virtual_time,omitempty"`
	MaxSolverQueries uint64        `json:"max_solver_queries,omitempty"`
	// KeepBugSnapshots retains per-bug hardware snapshots for crash
	// reports.
	KeepBugSnapshots bool `json:"keep_bug_snapshots,omitempty"`

	// Chaos injects deterministic failures (tests only; deliberately
	// not serialized, so a persisted job resumes undisturbed).
	Chaos *core.ChaosSchedule `json:"-"`
}

// withDefaults returns the job with every optional field resolved,
// the canonical form Fingerprint and SetupConfig operate on.
func (j Job) withDefaults() Job {
	if j.Mode == "" {
		j.Mode = "hardsnap"
	}
	if j.Searcher == "" {
		j.Searcher = "dfs"
	}
	if j.Concretize == "" {
		j.Concretize = "one"
	}
	if j.MaxInstructions == 0 {
		j.MaxInstructions = 2_000_000
	}
	if j.Workers == 0 {
		j.Workers = 1
	}
	return j
}

// Validate rejects jobs that cannot be compiled into a run.
func (j Job) Validate() error {
	j = j.withDefaults()
	if j.Firmware == "" {
		return fmt.Errorf("campaign: job has no firmware")
	}
	if _, err := ParseMode(j.Mode); err != nil {
		return err
	}
	if _, err := ParseSearcher(j.Searcher); err != nil {
		return err
	}
	if j.Concretize != "one" && j.Concretize != "all" {
		return fmt.Errorf("campaign: unknown concretization policy %q", j.Concretize)
	}
	if j.Workers < 0 {
		return fmt.Errorf("campaign: workers must be >= 0, got %d", j.Workers)
	}
	if j.SeedFanout < 0 {
		return fmt.Errorf("campaign: seed fan-out must be >= 0, got %d", j.SeedFanout)
	}
	if len(j.Assertions) > 0 && j.FPGA {
		return fmt.Errorf("campaign: hardware assertions need the simulator target")
	}
	for _, p := range j.Peripherals {
		if p.Name == "" {
			return fmt.Errorf("campaign: peripheral with empty name")
		}
	}
	return nil
}

// Fingerprint content-addresses the job: the sha256 of its canonical
// (defaults-resolved) JSON encoding. Equal fingerprints mean
// identical runs — the farm uses this for job identity and result
// reuse.
func (j Job) Fingerprint() string {
	data, err := json.Marshal(j.withDefaults())
	if err != nil {
		// Job fields are all plain data; Marshal cannot fail.
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// RigKey hashes only the fields that shape the execution vehicle —
// peripherals, target kind, snapshot method. Jobs with equal RigKeys
// can run on the same pooled target.
func (j Job) RigKey() string {
	spec := struct {
		Periphs  []target.PeriphConfig
		FPGA     bool
		Readback bool
	}{j.Peripherals, j.FPGA, j.Readback}
	data, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// SetupConfig compiles the job into the core setup. Run-level
// concerns (journal path, resume state, injected target) are layered
// on by the Runner.
func (j Job) SetupConfig() (core.SetupConfig, error) {
	if err := j.Validate(); err != nil {
		return core.SetupConfig{}, err
	}
	j = j.withDefaults()
	mode, err := ParseMode(j.Mode)
	if err != nil {
		return core.SetupConfig{}, err
	}
	searcher, err := ParseSearcher(j.Searcher)
	if err != nil {
		return core.SetupConfig{}, err
	}
	pol := symexec.ConcretizeOne
	if j.Concretize == "all" {
		pol = symexec.ConcretizeAll
	}
	return core.SetupConfig{
		Firmware:     j.Firmware,
		FirmwareBase: j.FirmwareBase,
		Peripherals:  j.Peripherals,
		FPGA:         j.FPGA,
		Readback:     j.Readback,
		HWAssertions: j.Assertions,
		Exec:         symexec.Config{Policy: pol, DisableSolverOpt: j.DisableSolverOpt},
		Engine: core.Config{
			Mode:             mode,
			Searcher:         searcher,
			MaxInstructions:  j.MaxInstructions,
			Workers:          j.Workers,
			SeedFanout:       j.SeedFanout,
			MaxVirtualTime:   j.MaxVirtualTime,
			MaxSolverQueries: j.MaxSolverQueries,
			KeepBugSnapshots: j.KeepBugSnapshots,
			Chaos:            j.Chaos,
		},
	}, nil
}

// ParseSearcher resolves a searcher name to its strategy.
func ParseSearcher(name string) (symexec.Searcher, error) {
	switch name {
	case "dfs":
		return symexec.DFS{}, nil
	case "bfs":
		return symexec.BFS{}, nil
	case "round-robin":
		return &symexec.RoundRobin{}, nil
	case "random":
		return symexec.NewRandom(1), nil
	case "coverage":
		return symexec.NewCoverage(), nil
	}
	return nil, fmt.Errorf("campaign: unknown searcher %q", name)
}

// ParseMode resolves a consistency-mode name.
func ParseMode(name string) (core.Mode, error) {
	switch name {
	case "hardsnap":
		return core.ModeHardSnap, nil
	case "naive-reboot":
		return core.ModeNaiveReboot, nil
	case "naive-shared":
		return core.ModeNaiveShared, nil
	case "record-replay":
		return core.ModeRecordReplay, nil
	}
	return 0, fmt.Errorf("campaign: unknown mode %q", name)
}
