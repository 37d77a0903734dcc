// Package target implements HardSnap's hardware targets: the
// execution vehicles that host peripheral RTL and expose it to the
// analysis through a register port, an interrupt line, clock
// advancement and whole-state snapshots (Save/Restore).
//
// Two targets exist, mirroring the paper's testbed:
//
//   - the simulator target executes the design in-process with full
//     visibility (Peek, VCD tracing via Simulator(), hardware
//     assertions) and CRIU-like structured-copy snapshots;
//   - the FPGA target executes the same RTL opaquely: state leaves
//     the fabric only through a real scan chain (bit-by-bit shifting
//     through the instrumented design) or through full-fabric
//     readback, and every MMIO access pays the debugger-link round
//     trip.
//
// Robustness is first-class: every link operation passes through a
// deterministic fault injector (FaultSchedule), transient faults are
// absorbed by bounded exponential-backoff retries, a ping-based
// health check detects persistent link death, and an orchestrator
// failover (SetStandby) transparently moves the analysis to a
// simulator target by restoring the last consistent snapshot and
// replaying the operation journal — the paper's E7 transfer mechanism
// used as a recovery path.
package target

import (
	"fmt"
	"time"

	"hardsnap/internal/bus"
	"hardsnap/internal/periph"
	"hardsnap/internal/rtl"
	"hardsnap/internal/scanchain"
	"hardsnap/internal/sim"
	"hardsnap/internal/vtime"
)

// Target kinds.
const (
	KindSimulator = "simulator"
	KindFPGA      = "fpga"
)

// PeriphConfig selects one peripheral instance for a target: either a
// corpus peripheral by kind (Periph) or custom Verilog (Source/Top).
type PeriphConfig struct {
	// Name is the instance name (bus region, snapshot key).
	Name string
	// Periph is a corpus peripheral kind (gpio, timer, uart, ...).
	Periph string
	// Source is custom Verilog, used instead of Periph when set.
	Source string
	// Top is the top module of Source.
	Top string
	// Params overrides module parameters.
	Params map[string]uint64
	// Interp forces the interpreter RTL engine instead of the
	// compiled-bytecode default (debugging / differential runs).
	Interp bool
}

// Stats are cumulative target-side counters.
type Stats struct {
	// Cycles counts clock cycles commanded via Advance.
	Cycles uint64
	// IOOps counts forwarded register reads/writes.
	IOOps uint64
	// Snapshots / Restores count state movements.
	Snapshots uint64
	Restores  uint64
	// SnapshotTime is the virtual time spent saving and restoring.
	SnapshotTime time.Duration
	// SnapshotBytes counts the state bytes actually moved over the
	// link by saves and restores (delta restores move only dirty
	// bytes, so this is the honest traffic number).
	SnapshotBytes uint64
	// DeltaRestores counts restores served by the incremental
	// dirty-only path instead of a full state load.
	DeltaRestores uint64
	// Retries counts transient link faults absorbed by retry.
	Retries uint64
	// FaultsInjected counts faults the schedule fired.
	FaultsInjected uint64
	// Failovers counts transparent transfers to the standby target.
	Failovers uint64
}

// RetryPolicy bounds how hard the target fights transient link
// faults before declaring the link dead. Zero fields take defaults.
type RetryPolicy struct {
	// MaxRetries is the number of consecutive transient failures
	// tolerated between health checks (default 4).
	MaxRetries int
	// Backoff is the initial retry delay, doubled per retry up to
	// vtime.LinkRetryBackoffMax (default vtime.LinkRetryBackoff).
	Backoff time.Duration
}

// healthPings is how many pings the health check sends before
// declaring the link persistently down.
const healthPings = 3

func (p RetryPolicy) norm() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = vtime.LinkRetryBackoff
	}
	return p
}

// journalOp is one replayable hardware interaction since the last
// consistent snapshot; the journal makes failover exact.
type jop uint8

const (
	jWrite jop = iota + 1
	jRead
	jAdvance
)

type journalOp struct {
	op     jop
	periph string
	addr   uint32
	val    uint32
	n      uint64
}

// journalCap bounds failover memory; overflowing disables failover
// until the next snapshot re-anchors the journal.
const journalCap = 1 << 15

// periphInst is one peripheral hosted on a target.
type periphInst struct {
	cfg    PeriphConfig
	design *rtl.Design
	sim    *sim.Simulator
	// irqWired reports whether the block can ever drive its irq
	// output (static corpus metadata; custom sources are
	// conservatively assumed wired). Remote clients use it to answer
	// IRQ polls for constant-low lines without a round trip.
	irqWired bool
	// layout maps scan-chain bit positions to named state (scan-mode
	// FPGA only).
	layout  []scanchain.BitRef
	asserts []*compiledAssert
	// genBase is the simulator mutation generation last folded into
	// the target generation (see Target.Generation).
	genBase uint64
}

// Target hosts a set of peripherals on one execution vehicle.
type Target struct {
	name  string
	kind  string
	scan  bool // FPGA snapshots via real scan-chain shifting
	clock *vtime.Clock
	costs vtime.Costs

	periphs map[string]*periphInst
	order   []*periphInst

	stats      Stats
	violations []Violation
	asserts    []HWAssertion

	// gen is the target-level mutation generation: it advances iff
	// some hosted peripheral's state changed value. Equal generations
	// prove the hardware is bit-identical, which lets the snapshot
	// manager skip save/restore traffic entirely.
	gen uint64
	// anchorSeq counts re-anchorings of dirty tracking (every Save,
	// Restore, Reset, delta restore or failover). A delta restore is
	// only sound against the record captured at the current anchor;
	// callers compare this sequence to detect a stale anchor.
	anchorSeq uint64

	// Robustness state.
	faults      *injector
	retry       RetryPolicy
	standby     *Target
	journal     []journalOp
	journalFull bool
	lastGood    State
	powerOn     State
	dead        bool
}

// NewSimulator builds a simulator target hosting the peripherals:
// full visibility, cheap structured-copy snapshots.
func NewSimulator(name string, clock *vtime.Clock, periphs []PeriphConfig) (*Target, error) {
	return build(name, KindSimulator, clock, periphs, vtime.SimCosts(), false)
}

// NewFPGA builds an FPGA target hosting the peripherals. Snapshots
// use the inserted scan chain (real bit shifting through the
// instrumented design) or, when readback is set, the fixed-cost
// full-fabric readback path.
func NewFPGA(name string, clock *vtime.Clock, periphs []PeriphConfig, readback bool) (*Target, error) {
	costs := vtime.FPGAScanCosts()
	if readback {
		costs = vtime.FPGAReadbackCosts()
	}
	return build(name, KindFPGA, clock, periphs, costs, !readback)
}

func build(name, kind string, clock *vtime.Clock, periphs []PeriphConfig, costs vtime.Costs, instrument bool) (*Target, error) {
	if clock == nil {
		return nil, fmt.Errorf("target %s: nil clock", name)
	}
	if len(periphs) == 0 {
		return nil, fmt.Errorf("target %s: no peripherals configured", name)
	}
	t := &Target{
		name:    name,
		kind:    kind,
		scan:    instrument,
		clock:   clock,
		costs:   costs,
		periphs: make(map[string]*periphInst, len(periphs)),
	}
	for _, cfg := range periphs {
		if cfg.Name == "" {
			return nil, fmt.Errorf("target %s: peripheral with empty instance name", name)
		}
		if _, dup := t.periphs[cfg.Name]; dup {
			return nil, fmt.Errorf("target %s: duplicate peripheral instance %q", name, cfg.Name)
		}
		inst, err := buildPeriph(cfg, instrument)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", name, err)
		}
		t.periphs[cfg.Name] = inst
		t.order = append(t.order, inst)
	}
	t.powerOn = t.snapshotRaw()
	t.lastGood = t.powerOn.Clone()
	return t, nil
}

func buildPeriph(cfg PeriphConfig, instrument bool) (*periphInst, error) {
	var (
		d       *rtl.Design
		reports map[string]*scanchain.Report
		top     string
		err     error
	)
	irqWired := true
	if cfg.Source != "" {
		top = cfg.Top
		if top == "" {
			return nil, fmt.Errorf("peripheral %s: custom Source requires Top", cfg.Name)
		}
		d, reports, err = periph.BuildCustom(cfg.Name, cfg.Source, top, cfg.Params, instrument)
	} else {
		spec, ok := periph.Lookup(cfg.Periph)
		if !ok {
			return nil, fmt.Errorf("peripheral %s: unknown kind %q", cfg.Name, cfg.Periph)
		}
		top = spec.Top
		irqWired = spec.HasIRQ
		d, reports, err = periph.Build(cfg.Periph, cfg.Params, instrument)
	}
	if err != nil {
		return nil, err
	}
	engine := sim.DefaultEngine()
	if cfg.Interp {
		engine = sim.EngineInterp
	}
	s, err := sim.NewEngine(d, engine)
	if err != nil {
		return nil, err
	}
	inst := &periphInst{cfg: cfg, design: d, sim: s, irqWired: irqWired}
	// Power-on reset pulse: registers with non-zero reset values
	// (baud divisors, state machines) come up initialized, exactly
	// like the physical platform asserting its reset line at boot.
	if sig, ok := d.SignalByName(bus.SigRst); ok && sig.IsInput {
		if err := s.SetInput(bus.SigRst, 1); err != nil {
			return nil, err
		}
		if err := s.StepCycle(); err != nil {
			return nil, fmt.Errorf("peripheral %s: power-on reset: %w", cfg.Name, err)
		}
		if err := s.SetInput(bus.SigRst, 0); err != nil {
			return nil, err
		}
		if err := s.EvalComb(); err != nil {
			return nil, fmt.Errorf("peripheral %s: power-on reset: %w", cfg.Name, err)
		}
	}
	if instrument {
		layout, err := scanchain.Layout(reports, top)
		if err != nil {
			return nil, err
		}
		if uint(len(layout)) != d.StateBits() {
			return nil, fmt.Errorf("peripheral %s: scan chain covers %d of %d state bits",
				cfg.Name, len(layout), d.StateBits())
		}
		inst.layout = layout
	}
	return inst, nil
}

// Name returns the target's instance name.
func (t *Target) Name() string { return t.name }

// Kind reports the execution vehicle ("simulator" or "fpga"); after
// a failover it reports the adopted backend.
func (t *Target) Kind() string { return t.kind }

// Clock returns the virtual clock all costs are charged to.
func (t *Target) Clock() *vtime.Clock { return t.clock }

// Stats returns a copy of the cumulative counters.
func (t *Target) Stats() Stats { return t.stats }

// StateBits is the total snapshot-relevant state across peripherals.
func (t *Target) StateBits() uint {
	var n uint
	for _, inst := range t.order {
		n += inst.design.StateBits()
	}
	return n
}

// Peripherals returns the hosted peripheral instance names in build
// order: the stable index space the remote protocol's batch frames
// and IRQ bitmaps address peripherals by.
func (t *Target) Peripherals() []string {
	names := make([]string, len(t.order))
	for i, inst := range t.order {
		names[i] = inst.cfg.Name
	}
	return names
}

// Generation returns the target-level mutation generation. It folds
// any pending per-peripheral simulator mutations in lazily: the
// counter advances exactly when some register, memory element or
// input pin changed value since the previous call. Two equal return
// values therefore prove the hardware state is unchanged.
func (t *Target) Generation() uint64 {
	for _, inst := range t.order {
		if g := inst.sim.Gen(); g != inst.genBase {
			inst.genBase = g
			t.gen++
		}
	}
	return t.gen
}

// AnchorSeq identifies the current dirty-tracking anchor (the state
// at the last Save/Restore/Reset). Delta restores are only valid
// against the snapshot captured at the same sequence number.
func (t *Target) AnchorSeq() uint64 { return t.anchorSeq }

// reanchor resets dirty tracking so the current hardware state
// becomes the delta-restore reference. mutated=false is the
// post-Save case: a scan-chain save transiently rotates bits through
// the fabric (net-identity on state), so the simulator generations
// move but the target generation must not — the saved state IS the
// live state.
func (t *Target) reanchor(mutated bool) {
	if mutated {
		t.gen++
	}
	for _, inst := range t.order {
		inst.genBase = inst.sim.Gen()
		inst.sim.ClearDirty()
	}
	t.anchorSeq++
}

// InjectFaults arms a deterministic fault schedule on the target's
// link. A zero schedule disarms injection.
func (t *Target) InjectFaults(s FaultSchedule) {
	if !s.active() {
		t.faults = nil
		return
	}
	t.faults = newInjector(s)
}

// SetRetryPolicy replaces the transient-fault retry policy.
func (t *Target) SetRetryPolicy(p RetryPolicy) { t.retry = p }

// port is a handle bound to the target by instance name, so it stays
// valid across a backend failover.
type port struct {
	t    *Target
	name string
}

var _ bus.Port = (*port)(nil)

func (p *port) ReadReg(offset uint32) (uint32, error)  { return p.t.readReg(p.name, offset) }
func (p *port) WriteReg(offset uint32, v uint32) error { return p.t.writeReg(p.name, offset, v) }
func (p *port) IRQLevel() (bool, error)                { return p.t.irqLevel(p.name) }

// Port returns the register port of a hosted peripheral.
func (t *Target) Port(name string) (bus.Port, error) {
	if _, ok := t.periphs[name]; !ok {
		return nil, fmt.Errorf("target %s: no peripheral %q", t.name, name)
	}
	return &port{t: t, name: name}, nil
}

// linkOp runs one link transaction with fault injection, bounded
// exponential-backoff retry, health checking and failover. rec, when
// non-nil, is journaled after success so the op can be replayed onto
// a standby target.
func (t *Target) linkOp(op string, rec *journalOp, fn func() error) error {
	if t.dead {
		return fatalf(op, "target %s is dead after an unrecoverable failure", t.name)
	}
	pol := t.retry.norm()
	backoff := pol.Backoff
	consecutive := 0
	for {
		var err error
		if t.faults != nil {
			if err = t.faults.op(t.clock); err != nil {
				t.stats.FaultsInjected++
			}
		}
		if err == nil {
			// Faults fire before the operation reaches the hardware,
			// so a retried operation applies exactly once.
			err = fn()
		}
		if err == nil {
			if rec != nil {
				t.journalAppend(*rec)
			}
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		consecutive++
		if consecutive <= pol.MaxRetries {
			t.stats.Retries++
			t.clock.Advance(backoff)
			if backoff < vtime.LinkRetryBackoffMax {
				backoff = min(2*backoff, vtime.LinkRetryBackoffMax)
			}
			continue
		}
		// Retry budget exhausted: probe the link before deciding the
		// failure is persistent.
		if t.healthy() {
			// Fault storm on a live link: keep retrying at capped
			// backoff.
			consecutive = 0
			continue
		}
		if ferr := t.failover(op, err); ferr != nil {
			return ferr
		}
		// Loop re-runs fn against the adopted (fault-free) backend.
		consecutive = 0
	}
}

// healthy probes the link with pings; any echo proves it alive.
func (t *Target) healthy() bool {
	if t.faults == nil {
		return true
	}
	for i := 0; i < healthPings; i++ {
		t.clock.Advance(t.costs.IORoundTrip)
		if err := t.faults.op(t.clock); err == nil {
			return true
		}
		t.stats.FaultsInjected++
	}
	return false
}

func (t *Target) journalAppend(j journalOp) {
	if t.standby == nil || t.journalFull {
		return
	}
	if len(t.journal) >= journalCap {
		t.journal = nil
		t.journalFull = true
		return
	}
	t.journal = append(t.journal, j)
}

// fastLink reports whether link operations may skip the retry/
// failover machinery entirely: no fault injection armed, no standby
// to journal for, and the link alive. On this path linkOp would run
// the operation exactly once and journal nothing, so calling the
// backend directly is behaviorally identical — and free of the
// closure and journal-record allocations linkOp's bookkeeping costs
// per call, which matters when a fuzzing hot loop advances the
// hardware once per retired instruction.
func (t *Target) fastLink() bool {
	return !t.dead && t.faults == nil && t.standby == nil
}

// readReg forwards a register read over the link.
func (t *Target) readReg(name string, offset uint32) (uint32, error) {
	if t.fastLink() {
		return t.execRead(name, offset)
	}
	var v uint32
	err := t.linkOp("read "+name, &journalOp{op: jRead, periph: name, addr: offset}, func() error {
		var err error
		v, err = t.execRead(name, offset)
		return err
	})
	return v, err
}

// writeReg forwards a register write over the link.
func (t *Target) writeReg(name string, offset uint32, v uint32) error {
	if t.fastLink() {
		return t.execWrite(name, offset, v)
	}
	return t.linkOp("write "+name, &journalOp{op: jWrite, periph: name, addr: offset, val: v}, func() error {
		return t.execWrite(name, offset, v)
	})
}

// irqLevel samples the interrupt line. The line is a dedicated
// sideband wire: sampling is free of virtual time and never journaled
// (it carries no state).
func (t *Target) irqLevel(name string) (bool, error) {
	if t.fastLink() {
		return t.execIRQLevel(name)
	}
	var level bool
	err := t.linkOp("irq "+name, nil, func() error {
		var err error
		level, err = t.execIRQLevel(name)
		return err
	})
	return level, err
}

func (t *Target) execIRQLevel(name string) (bool, error) {
	inst, ok := t.periphs[name]
	if !ok {
		return false, fatalf("irq", "no peripheral %q", name)
	}
	v, err := inst.sim.Peek(bus.SigIRQ)
	if err != nil {
		return false, fatalf("irq "+name, "%v", err)
	}
	return v != 0, nil
}

// HasAssertions reports whether any hardware assertion is registered.
// A target without assertions can never produce violations, so a
// remote client may answer TakeViolations locally without a round
// trip (assertions must be registered before the target is served).
func (t *Target) HasAssertions() bool {
	for _, inst := range t.order {
		if len(inst.asserts) > 0 {
			return true
		}
	}
	return false
}

// IRQWired reports whether the named peripheral can ever drive its
// interrupt line. False means the line is statically constant-low
// (corpus metadata: the module's irq output is tied to 1'b0), so a
// remote client may answer IRQ polls for it locally, without a wire
// round trip. Unknown names report wired, the conservative answer.
func (t *Target) IRQWired(name string) bool {
	inst, ok := t.periphs[name]
	if !ok {
		return true
	}
	return inst.irqWired
}

// Advance runs every hosted peripheral n clock cycles.
func (t *Target) Advance(n uint64) error {
	return t.linkOp("advance", &journalOp{op: jAdvance, n: n}, func() error {
		return t.execAdvance(n)
	})
}

// Save captures the complete hardware state. On success the snapshot
// becomes the failover anchor (last consistent state) and the op
// journal restarts from it.
func (t *Target) Save() (State, error) {
	// Fold pending mutations into the generation before the backend
	// runs, so they are not conflated with the scan rotation's
	// transient (net-identity) bit movement absorbed by reanchor.
	t.Generation()
	var st State
	err := t.linkOp("save", nil, func() error {
		var err error
		st, err = t.saveBackend()
		return err
	})
	if err != nil {
		return nil, err
	}
	if t.standby != nil {
		// Same skip as Restore: nobody reads lastGood without a standby.
		t.lastGood = st.Clone()
	}
	t.journal = nil
	t.journalFull = false
	t.reanchor(false)
	return st, nil
}

// Restore loads a previously saved state. The snapshot is validated
// against the hosted designs before any bit reaches the hardware;
// corrupted or mismatched snapshots are rejected with an integrity
// error instead of silently diverging the hardware.
func (t *Target) Restore(s State) error {
	if err := t.validateState(s); err != nil {
		return err
	}
	err := t.linkOp("restore", nil, func() error { return t.applyState(s) })
	if err != nil {
		return err
	}
	if t.standby != nil {
		// lastGood is only ever read by failover, which needs an armed
		// standby; arming one later re-snapshots (see Standby), so with
		// no standby the deep clone is skipped — it would otherwise be
		// the only allocation on a fuzzer's per-exec reset path.
		t.lastGood = s.Clone()
	}
	t.journal = nil
	t.journalFull = false
	t.reanchor(true)
	return nil
}

// RestoreDelta loads a previously saved state by writing back only
// the state elements dirtied since the last anchor (Save, Restore or
// Reset), charging the incremental-restore cost instead of the full
// freeze+copy. It returns (false, nil) — caller must fall back to
// Restore — when the target has no physical delta path: scan-chain
// and readback FPGAs always move the whole fabric, and a target with
// an armed fault injector or standby must go through the journaled
// full path so failover replay stays exact.
//
// Correctness precondition (checked by the snapshot manager, not
// here): s must be the state captured at the current AnchorSeq —
// every clean element already holds its value from s.
func (t *Target) RestoreDelta(s State) (bool, error) {
	if t.kind != KindSimulator || t.scan || t.faults != nil || t.standby != nil {
		return false, nil
	}
	if err := t.validateState(s); err != nil {
		return true, err
	}
	if err := t.linkOp("restore-delta", nil, func() error { return t.applyDelta(s) }); err != nil {
		return true, err
	}
	// No lastGood update: the guard above already excludes targets
	// with a standby armed, and only failover (which requires one)
	// ever reads it. Cloning here would allocate on every delta
	// restore — the fuzzer's per-exec reset.
	t.journal = nil
	t.journalFull = false
	t.reanchor(true)
	return true, nil
}

// Reset performs a warm reset: every peripheral returns to its
// power-on (zero) state without paying a platform reboot.
func (t *Target) Reset() error {
	err := t.linkOp("reset", nil, func() error { return t.execReset() })
	if err != nil {
		return err
	}
	t.lastGood = t.powerOn.Clone()
	t.journal = nil
	t.journalFull = false
	t.reanchor(true)
	return nil
}

// Peek reads an internal signal by name: simulator target only.
func (t *Target) Peek(periphName, signal string) (uint64, error) {
	if t.kind != KindSimulator {
		return 0, ErrNoVisibility
	}
	inst, ok := t.periphs[periphName]
	if !ok {
		return 0, fmt.Errorf("target %s: no peripheral %q", t.name, periphName)
	}
	return inst.sim.Peek(signal)
}

// Simulator exposes the underlying RTL simulator of one peripheral
// for tracing and deep inspection: simulator target only.
func (t *Target) Simulator(periphName string) (*sim.Simulator, error) {
	if t.kind != KindSimulator {
		return nil, ErrNoVisibility
	}
	inst, ok := t.periphs[periphName]
	if !ok {
		return nil, fmt.Errorf("target %s: no peripheral %q", t.name, periphName)
	}
	return inst.sim, nil
}

// --- raw backend operations (no fault injection, no retry) ---

func (t *Target) execRead(name string, offset uint32) (uint32, error) {
	inst, ok := t.periphs[name]
	if !ok {
		return 0, fatalf("read", "no peripheral %q", name)
	}
	t.clock.Advance(t.costs.IORoundTrip + t.costs.Cycle)
	t.stats.IOOps++
	v, err := inst.busRead(offset)
	if err != nil {
		return 0, fatalf("read "+name, "%v", err)
	}
	if err := t.checkAssertions(inst); err != nil {
		return 0, err
	}
	return v, nil
}

func (t *Target) execWrite(name string, offset uint32, v uint32) error {
	inst, ok := t.periphs[name]
	if !ok {
		return fatalf("write", "no peripheral %q", name)
	}
	t.clock.Advance(t.costs.IORoundTrip + t.costs.Cycle)
	t.stats.IOOps++
	if err := inst.busWrite(offset, v); err != nil {
		return fatalf("write "+name, "%v", err)
	}
	return t.checkAssertions(inst)
}

func (t *Target) execAdvance(n uint64) error {
	t.clock.Advance(time.Duration(n) * t.costs.Cycle)
	for i := uint64(0); i < n; i++ {
		for _, inst := range t.order {
			if err := inst.sim.StepCycle(); err != nil {
				return fatalf("advance", "%s: %v", inst.cfg.Name, err)
			}
		}
		t.stats.Cycles++
		for _, inst := range t.order {
			if len(inst.asserts) > 0 {
				if err := t.checkAssertions(inst); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (t *Target) execReset() error {
	t.clock.Advance(t.costs.Cycle)
	for _, inst := range t.order {
		if err := inst.sim.Restore(t.powerOn[inst.cfg.Name]); err != nil {
			return fatalf("reset", "%s: %v", inst.cfg.Name, err)
		}
	}
	return nil
}

// snapshotRaw copies the full state directly (no cost charged): the
// full-visibility path of the simulator target and the orchestrator's
// internal bookkeeping.
func (t *Target) snapshotRaw() State {
	st := make(State, len(t.order))
	for _, inst := range t.order {
		st[inst.cfg.Name] = inst.sim.Snapshot()
	}
	return st
}

func (t *Target) saveBackend() (State, error) {
	before := t.clock.Now()
	var st State
	if t.scan {
		st = make(State, len(t.order))
		for _, inst := range t.order {
			hw, err := t.scanSave(inst)
			if err != nil {
				return nil, err
			}
			st[inst.cfg.Name] = hw
		}
	} else {
		// Simulator: CRIU-like freeze+copy. Readback FPGA: one
		// fixed-cost full-fabric dump.
		t.clock.Advance(t.costs.SnapshotCost(t.StateBits()))
		st = t.snapshotRaw()
	}
	t.stats.Snapshots++
	t.stats.SnapshotBytes += uint64(t.StateBits()+7) / 8
	t.stats.SnapshotTime += t.clock.Now() - before
	return st, nil
}

func (t *Target) validateState(s State) error {
	if s == nil {
		return integrityf("restore", "nil state")
	}
	for name, hw := range s {
		inst, ok := t.periphs[name]
		if !ok {
			return integrityf("restore", "snapshot names unknown peripheral %q", name)
		}
		if hw == nil {
			return integrityf("restore", "nil state for peripheral %q", name)
		}
		d := inst.design
		for rn := range hw.Regs {
			if sig, ok := d.SignalByName(rn); !ok || !sig.IsReg {
				return integrityf("restore", "peripheral %s: register %q does not exist in design", name, rn)
			}
		}
		for mn, words := range hw.Mems {
			m, ok := d.MemoryByName(mn)
			if !ok {
				return integrityf("restore", "peripheral %s: memory %q does not exist in design", name, mn)
			}
			if uint(len(words)) > m.Depth {
				return integrityf("restore", "peripheral %s: memory %q has %d words, design holds %d",
					name, mn, len(words), m.Depth)
			}
		}
		// Unknown input names are tolerated: state transfers between
		// scan-instrumented and plain builds of the same design.
	}
	return nil
}

// applyState loads s into the hardware, charging the restore cost.
// Callers must have validated s.
func (t *Target) applyState(s State) error {
	before := t.clock.Now()
	if t.scan {
		for _, inst := range t.order {
			if err := t.scanRestore(inst, s[inst.cfg.Name]); err != nil {
				return err
			}
		}
	} else {
		t.clock.Advance(t.costs.SnapshotCost(t.StateBits()))
		for _, inst := range t.order {
			if err := inst.sim.Restore(s[inst.cfg.Name]); err != nil {
				return integrityf("restore "+inst.cfg.Name, "%v", err)
			}
		}
	}
	t.stats.Restores++
	t.stats.SnapshotBytes += uint64(t.StateBits()+7) / 8
	t.stats.SnapshotTime += t.clock.Now() - before
	return nil
}

// applyDelta writes back only the dirty state elements from s,
// charging the incremental cost. Callers must have validated s and
// guaranteed the anchor precondition (see RestoreDelta).
func (t *Target) applyDelta(s State) error {
	before := t.clock.Now()
	var bits uint
	for _, inst := range t.order {
		n, err := inst.sim.RestoreDirty(s[inst.cfg.Name])
		if err != nil {
			return integrityf("restore-delta "+inst.cfg.Name, "%v", err)
		}
		bits += n
	}
	t.clock.Advance(t.costs.DeltaCost(bits))
	t.stats.Restores++
	t.stats.DeltaRestores++
	t.stats.SnapshotBytes += uint64(bits+7) / 8
	t.stats.SnapshotTime += t.clock.Now() - before
	return nil
}

// --- register-port bus transactions (single-cycle convention) ---

func (inst *periphInst) busWrite(addr, val uint32) error {
	s := inst.sim
	if err := driveAll(s,
		in{bus.SigSel, 1}, in{bus.SigWen, 1},
		in{bus.SigAddr, uint64(addr)}, in{bus.SigWData, uint64(val)}); err != nil {
		return err
	}
	if err := s.StepCycle(); err != nil {
		return err
	}
	if err := driveAll(s, in{bus.SigSel, 0}, in{bus.SigWen, 0}); err != nil {
		return err
	}
	return s.EvalComb()
}

func (inst *periphInst) busRead(addr uint32) (uint32, error) {
	s := inst.sim
	if err := driveAll(s,
		in{bus.SigSel, 1}, in{bus.SigWen, 0}, in{bus.SigAddr, uint64(addr)}); err != nil {
		return 0, err
	}
	if err := s.EvalComb(); err != nil {
		return 0, err
	}
	v, err := s.Peek(bus.SigRData)
	if err != nil {
		return 0, err
	}
	if err := s.StepCycle(); err != nil {
		return 0, err
	}
	if err := s.SetInput(bus.SigSel, 0); err != nil {
		return 0, err
	}
	if err := s.EvalComb(); err != nil {
		return 0, err
	}
	return uint32(v), nil
}

type in struct {
	name string
	val  uint64
}

func driveAll(s *sim.Simulator, ins ...in) error {
	for _, i := range ins {
		if err := s.SetInput(i.name, i.val); err != nil {
			return err
		}
	}
	return nil
}
