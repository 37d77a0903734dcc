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
//     the fabric only through the inserted scan chain (charged one
//     scan clock per chain bit, and copied once the chain is proven
//     a shift register; see fpga.go) or through full-fabric readback,
//     and every MMIO access pays the debugger-link round trip.
//
// An in-process target calls its backend directly: nothing between
// the analysis and the RTL can lose a transaction. The one link that
// can fail is the wire to an out-of-process target (internal/remote),
// which FaultConn disturbs and the remote client's retransmit and
// redial recover. Transfer moves the complete hardware state between
// targets (the paper's E7).
package target

import (
	"fmt"
	"slices"
	"strings"
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
}

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
	// pos is the instance's position in a State: its rank by name.
	pos int
}

// Target hosts a set of peripherals on one execution vehicle.
type Target struct {
	name  string
	kind  string
	scan  bool // FPGA snapshots through the scan chain
	clock *vtime.Clock
	costs vtime.Costs

	periphs map[string]*periphInst
	order   []*periphInst
	// byName lists the instances in State order (inst.pos).
	byName []*periphInst
	// stateBits is the total state across peripherals, fixed at build.
	stateBits uint

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

	powerOn State
}

// NewSimulator builds a simulator target hosting the peripherals:
// full visibility, cheap structured-copy snapshots.
func NewSimulator(name string, clock *vtime.Clock, periphs []PeriphConfig) (*Target, error) {
	return build(name, KindSimulator, clock, periphs, vtime.SimCosts(), false)
}

// NewFPGA builds an FPGA target hosting the peripherals. Snapshots
// use the inserted scan chain, charged per chain bit (fpga.go), or,
// when readback is set, the fixed-cost full-fabric readback path.
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
		t.stateBits += inst.design.StateBits()
	}
	t.byName = slices.Clone(t.order)
	slices.SortFunc(t.byName, func(a, b *periphInst) int { return strings.Compare(a.cfg.Name, b.cfg.Name) })
	for i, inst := range t.byName {
		inst.pos = i
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
		inst.scan, err = resolveScan(inst.design, inst.sim.Layout(), layout)
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
func (t *Target) StateBits() uint { return t.stateBits }

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

// port is a handle bound to one hosted peripheral instance.
type port struct {
	t    *Target
	inst *periphInst
}

var _ bus.Port = (*port)(nil)

// ReadReg forwards a register read: one link round trip and one bus
// cycle.
func (p *port) ReadReg(offset uint32) (uint32, error) {
	t, inst := p.t, p.inst
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

// WriteReg forwards a register write: one link round trip and one bus
// cycle.
func (p *port) WriteReg(offset uint32, v uint32) error {
	t, inst := p.t, p.inst
	t.clock.Advance(t.costs.IORoundTrip + t.costs.Cycle)
	t.stats.IOOps++
	if err := inst.busWrite(offset, v); err != nil {
		return fatalf("write "+inst.cfg.Name, "%v", err)
	}
	return t.checkAssertions(inst)
}

// IRQLevel samples the interrupt line. The line is a dedicated
// sideband wire: sampling is free of virtual time.
func (p *port) IRQLevel() (bool, error) { return p.inst.sim.PeekID(p.inst.pins.irq) != 0, nil }

// Port returns the register port of a hosted peripheral.
func (t *Target) Port(name string) (bus.Port, error) {
	inst, ok := t.periphs[name]
	if !ok {
		return nil, fmt.Errorf("target %s: no peripheral %q", t.name, name)
	}
	return &port{t: t, inst: inst}, nil
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

// Save captures the complete hardware state. On success the saved
// state becomes the delta-restore anchor.
func (t *Target) Save() (State, error) {
	// Fold pending mutations into the generation before the backend
	// runs, so they are not conflated with the scan rotation's
	// transient (net-identity) bit movement absorbed by reanchor.
	t.Generation()
	st, err := t.saveBackend()
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
	if err := t.applyState(s); err != nil {
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
	if err := t.applyDelta(s); err != nil {
		return true, err
	}
	t.reanchor(true)
	return true, nil
}

// Reset performs a warm reset: every peripheral returns to its
// power-on (zero) state without paying a platform reboot.
func (t *Target) Reset() error {
	t.clock.Advance(t.costs.Cycle)
	for _, inst := range t.order {
		if err := inst.sim.Restore(&t.powerOn[inst.pos].HW); err != nil {
			return fatalf("reset", "%s: %v", inst.cfg.Name, err)
		}
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

// newState returns a State naming the hosted peripherals, in order,
// with every HW left for the caller to fill.
func (t *Target) newState() State {
	st := make(State, len(t.byName))
	for i, inst := range t.byName {
		st[i].Name = inst.cfg.Name
	}
	return st
}

// snapshotRaw copies the full state directly (no cost charged): the
// full-visibility path of the simulator target and the orchestrator's
// internal bookkeeping.
func (t *Target) snapshotRaw() State {
	st := t.newState()
	for i, inst := range t.byName {
		inst.sim.SnapshotTo(&st[i].HW)
	}
	return st
}

func (t *Target) saveBackend() (State, error) {
	before := t.clock.Now()
	var st State
	if t.scan {
		st = t.newState()
		for _, inst := range t.order {
			if err := t.scanSave(inst, &st[inst.pos].HW); err != nil {
				return nil, err
			}
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

// validateState refuses, before any bit moves, a state that does not
// hold exactly the hosted peripherals, once each and in name order,
// each in its simulator's layout.
func (t *Target) validateState(s State) error {
	for i, inst := range t.byName {
		if i >= len(s) || s[i].Name != inst.cfg.Name {
			return integrityf("restore", "state has no peripheral %q at position %d (a state lists its peripherals in name order)", inst.cfg.Name, i)
		}
		if err := inst.sim.Layout().Check(s[i].HW.Layout()); err != nil {
			return integrityf("restore", "peripheral %s: %v", inst.cfg.Name, err)
		}
	}
	if len(s) != len(t.byName) {
		return integrityf("restore", "state holds %d peripherals, target hosts %d", len(s), len(t.byName))
	}
	return nil
}

// applyState loads s into the hardware, charging the restore cost.
// Callers must have validated s.
func (t *Target) applyState(s State) error {
	before := t.clock.Now()
	if t.scan {
		for _, inst := range t.order {
			if err := t.scanRestore(inst, &s[inst.pos].HW); err != nil {
				return err
			}
		}
	} else {
		t.clock.Advance(t.costs.SnapshotCost(t.StateBits()))
		for _, inst := range t.order {
			if err := inst.sim.Restore(&s[inst.pos].HW); err != nil {
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
		n, err := inst.sim.RestoreDirty(&s[inst.pos].HW)
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
