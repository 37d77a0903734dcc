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
// absorbed by bounded exponential-backoff retries, and a ping-based
// health check detects persistent link death, after which the target
// is dead and every operation fails with a fatal error. Transfer moves
// the complete hardware state between targets (the paper's E7).
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
}

// linkRetries is how many consecutive transient link failures the
// target absorbs between health checks. The retry delay starts at
// vtime.LinkRetryBackoff and doubles per retry up to
// vtime.LinkRetryBackoffMax.
const linkRetries = 4

// healthPings is how many pings the health check sends before
// declaring the link persistently down.
const healthPings = 3

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
	// pins is the register port, resolved to signal IDs at build.
	pins pins
	// scan is the resolved scan chain (scan-mode FPGA only).
	scan    *scanPort
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
	// Restore, Reset or delta restore). A delta restore is only sound
	// against the record captured at the current anchor; callers
	// compare this sequence to detect a stale anchor.
	anchorSeq uint64

	// Robustness state.
	faults  *injector
	powerOn State
	dead    bool
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
	s, err := sim.New(d)
	if err != nil {
		return nil, err
	}
	inst := &periphInst{cfg: cfg, design: d, sim: s, irqWired: irqWired}
	var layout []scanchain.BitRef
	if instrument {
		if layout, err = scanchain.Layout(reports, top); err != nil {
			return nil, err
		}
		if uint(len(layout)) != d.StateBits() {
			return nil, fmt.Errorf("peripheral %s: scan chain covers %d of %d state bits",
				cfg.Name, len(layout), d.StateBits())
		}
	}
	if err := inst.resolve(layout, instrument); err != nil {
		return nil, err
	}
	// Power-on reset pulse: registers with non-zero reset values
	// (baud divisors, state machines) come up initialized, exactly
	// like the physical platform asserting its reset line at boot.
	if sig, ok := d.SignalByName(bus.SigRst); ok && sig.IsInput {
		s.SetInputID(sig.ID, 1)
		if err := s.StepCycle(); err != nil {
			return nil, fmt.Errorf("peripheral %s: power-on reset: %w", cfg.Name, err)
		}
		s.SetInputID(sig.ID, 0)
		if err := s.EvalComb(); err != nil {
			return nil, fmt.Errorf("peripheral %s: power-on reset: %w", cfg.Name, err)
		}
	}
	return inst, nil
}

// resolve binds the pins the target drives, and on a scan FPGA the
// scan chain, to simulator IDs. A pin or chain position the design
// does not hold fails the build with an error naming the peripheral
// and the signal, instead of failing every MMIO access or scan shift.
func (inst *periphInst) resolve(layout []scanchain.BitRef, scan bool) error {
	p := &inst.pins
	err := bindPins(inst.design, "register port",
		pin{bus.SigSel, true, &p.sel}, pin{bus.SigWen, true, &p.wen},
		pin{bus.SigAddr, true, &p.addr}, pin{bus.SigWData, true, &p.wdata},
		pin{bus.SigRData, false, &p.rdata}, pin{bus.SigIRQ, false, &p.irq})
	if err == nil && scan {
		inst.scan, err = resolveScan(inst.design, layout)
	}
	if err != nil {
		return fmt.Errorf("peripheral %s: %w", inst.cfg.Name, err)
	}
	return nil
}

// pins are the signal IDs of a peripheral's register port.
type pins struct {
	sel, wen, addr, wdata, rdata, irq int
}

// pin is a top-level signal the target drives (an input) or samples,
// and where its resolved signal ID goes.
type pin struct {
	name  string
	input bool
	id    *int
}

// bindPins resolves the pins of one port of d to signal IDs.
func bindPins(d *rtl.Design, port string, ps ...pin) error {
	for _, p := range ps {
		sig, ok := d.SignalByName(p.name)
		switch {
		case !ok:
			return fmt.Errorf("%s: no signal %q", port, p.name)
		case p.input && !sig.IsInput:
			return fmt.Errorf("%s: %q is not an input", port, p.name)
		}
		*p.id = sig.ID
	}
	return nil
}

// Name returns the target's instance name.
func (t *Target) Name() string { return t.name }

// Kind reports the execution vehicle ("simulator" or "fpga").
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

// FaultSchedule returns the armed fault schedule, if any.
func (t *Target) FaultSchedule() (FaultSchedule, bool) {
	if t.faults == nil {
		return FaultSchedule{}, false
	}
	return t.faults.sched, true
}

// port is a handle bound to one hosted peripheral instance.
type port struct {
	t    *Target
	inst *periphInst
}

var _ bus.Port = (*port)(nil)

func (p *port) ReadReg(offset uint32) (uint32, error)  { return p.t.readReg(p.inst, offset) }
func (p *port) WriteReg(offset uint32, v uint32) error { return p.t.writeReg(p.inst, offset, v) }
func (p *port) IRQLevel() (bool, error)                { return p.t.irqLevel(p.inst) }

// Port returns the register port of a hosted peripheral.
func (t *Target) Port(name string) (bus.Port, error) {
	inst, ok := t.periphs[name]
	if !ok {
		return nil, fmt.Errorf("target %s: no peripheral %q", t.name, name)
	}
	return &port{t: t, inst: inst}, nil
}

// linkOp runs one link transaction with fault injection, bounded
// exponential-backoff retry and health checking. A link that fails
// the health check is persistently down: the target is dead and the
// caller receives a fatal error.
func (t *Target) linkOp(op string, fn func() error) error {
	if t.dead {
		return fatalf(op, "target %s is dead after an unrecoverable failure", t.name)
	}
	backoff := vtime.LinkRetryBackoff
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
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		consecutive++
		if consecutive <= linkRetries {
			t.stats.Retries++
			t.clock.Advance(backoff)
			backoff = min(2*backoff, vtime.LinkRetryBackoffMax)
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
		t.dead = true
		return fatalf(op, "target %s: persistent link failure: %v", t.name, err)
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

// fastLink reports whether link operations may skip the retry
// machinery entirely: no fault injection armed and the link alive. On
// this path linkOp would run the operation exactly once, so calling
// the backend directly is behaviorally identical — and free of the
// closure allocation linkOp costs per call, which matters when a
// fuzzing hot loop advances the hardware once per retired instruction.
func (t *Target) fastLink() bool {
	return !t.dead && t.faults == nil
}

// readReg forwards a register read over the link.
func (t *Target) readReg(inst *periphInst, offset uint32) (uint32, error) {
	if t.fastLink() {
		return t.execRead(inst, offset)
	}
	var v uint32
	err := t.linkOp("read "+inst.cfg.Name, func() error {
		var err error
		v, err = t.execRead(inst, offset)
		return err
	})
	return v, err
}

// writeReg forwards a register write over the link.
func (t *Target) writeReg(inst *periphInst, offset uint32, v uint32) error {
	if t.fastLink() {
		return t.execWrite(inst, offset, v)
	}
	return t.linkOp("write "+inst.cfg.Name, func() error {
		return t.execWrite(inst, offset, v)
	})
}

// irqLevel samples the interrupt line. The line is a dedicated
// sideband wire: sampling is free of virtual time.
func (t *Target) irqLevel(inst *periphInst) (bool, error) {
	if t.fastLink() {
		return execIRQLevel(inst), nil
	}
	var level bool
	err := t.linkOp("irq "+inst.cfg.Name, func() error {
		level = execIRQLevel(inst)
		return nil
	})
	return level, err
}

func execIRQLevel(inst *periphInst) bool {
	return inst.sim.PeekID(inst.pins.irq) != 0
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
	return t.linkOp("advance", func() error { return t.execAdvance(n) })
}

// Save captures the complete hardware state. On success the saved
// state becomes the delta-restore anchor.
func (t *Target) Save() (State, error) {
	// Fold pending mutations into the generation before the backend
	// runs, so they are not conflated with the scan rotation's
	// transient (net-identity) bit movement absorbed by reanchor.
	t.Generation()
	var st State
	err := t.linkOp("save", func() error {
		var err error
		st, err = t.saveBackend()
		return err
	})
	if err != nil {
		return nil, err
	}
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
	err := t.linkOp("restore", func() error { return t.applyState(s) })
	if err != nil {
		return err
	}
	t.reanchor(true)
	return nil
}

// RestoreDelta loads a previously saved state by writing back only
// the state elements dirtied since the last anchor (Save, Restore or
// Reset), charging the incremental-restore cost instead of the full
// freeze+copy. It returns (false, nil) — caller must fall back to
// Restore — when the target has no physical delta path: scan-chain
// and readback FPGAs always move the whole fabric.
//
// Correctness precondition (checked by the snapshot manager, not
// here): s must be the state captured at the current AnchorSeq —
// every clean element already holds its value from s.
func (t *Target) RestoreDelta(s State) (bool, error) {
	if t.kind != KindSimulator || t.scan {
		return false, nil
	}
	if err := t.validateState(s); err != nil {
		return true, err
	}
	if err := t.linkOp("restore-delta", func() error { return t.applyDelta(s) }); err != nil {
		return true, err
	}
	t.reanchor(true)
	return true, nil
}

// Reset performs a warm reset: every peripheral returns to its
// power-on (zero) state without paying a platform reboot.
func (t *Target) Reset() error {
	err := t.linkOp("reset", t.execReset)
	if err != nil {
		return err
	}
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

func (t *Target) execRead(inst *periphInst, offset uint32) (uint32, error) {
	t.clock.Advance(t.costs.IORoundTrip + t.costs.Cycle)
	t.stats.IOOps++
	v, err := inst.busRead(offset)
	if err != nil {
		return 0, fatalf("read "+inst.cfg.Name, "%v", err)
	}
	if err := t.checkAssertions(inst); err != nil {
		return 0, err
	}
	return v, nil
}

func (t *Target) execWrite(inst *periphInst, offset uint32, v uint32) error {
	t.clock.Advance(t.costs.IORoundTrip + t.costs.Cycle)
	t.stats.IOOps++
	if err := inst.busWrite(offset, v); err != nil {
		return fatalf("write "+inst.cfg.Name, "%v", err)
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
	s, p := inst.sim, &inst.pins
	s.SetInputID(p.sel, 1)
	s.SetInputID(p.wen, 1)
	s.SetInputID(p.addr, uint64(addr))
	s.SetInputID(p.wdata, uint64(val))
	if err := s.StepCycle(); err != nil {
		return err
	}
	s.SetInputID(p.sel, 0)
	s.SetInputID(p.wen, 0)
	return s.EvalComb()
}

func (inst *periphInst) busRead(addr uint32) (uint32, error) {
	s, p := inst.sim, &inst.pins
	s.SetInputID(p.sel, 1)
	s.SetInputID(p.wen, 0)
	s.SetInputID(p.addr, uint64(addr))
	if err := s.EvalComb(); err != nil {
		return 0, err
	}
	v := s.PeekID(p.rdata)
	if err := s.StepCycle(); err != nil {
		return 0, err
	}
	s.SetInputID(p.sel, 0)
	if err := s.EvalComb(); err != nil {
		return 0, err
	}
	return uint32(v), nil
}
