package target

import (
	"fmt"

	"hardsnap/internal/vtime"
)

// spawnSeedMix decorrelates the fault PRNG streams of sibling clones:
// child seed = parent seed + (stream+1) * spawnSeedMix (the 64-bit
// golden-ratio increment, so nearby stream numbers land far apart).
const spawnSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15 as int64

// Spawn builds an independent copy of the target for worker fan-out:
// same peripherals, kind, snapshot costs and hardware assertions,
// rebuilt from the original configuration so the clone comes up in
// exactly the parent's power-on state (peripheral construction and
// the power-on reset pulse are deterministic). The clone keeps its
// own mutation generation, anchor and violation list, and charges
// virtual time to the given clock.
//
// If the parent has fault injection armed, the clone gets a fresh
// PRNG stream derived from the parent seed and the stream number, so
// parallel fault runs are reproducible per worker without the clones
// observing correlated fault sequences. A spawned worker target that
// dies fails its worker's subtree, which the merge layer reports.
func (t *Target) Spawn(name string, clock *vtime.Clock, stream int) (*Target, error) {
	if clock == nil {
		return nil, fmt.Errorf("target %s: spawn: nil clock", t.name)
	}
	cfgs := make([]PeriphConfig, 0, len(t.order))
	for _, inst := range t.order {
		cfgs = append(cfgs, inst.cfg)
	}
	nt, err := build(name, t.kind, clock, cfgs, t.costs, t.scan)
	if err != nil {
		return nil, fmt.Errorf("target %s: spawn: %w", t.name, err)
	}
	for _, a := range t.asserts {
		if err := nt.AddAssertion(a); err != nil {
			return nil, fmt.Errorf("target %s: spawn: %w", t.name, err)
		}
	}
	if t.faults != nil {
		nt.InjectFaults(t.faults.sched.Derive(stream))
	}
	return nt, nil
}

// Derive returns the schedule with a decorrelated child PRNG stream:
// the same (parent seed, stream) pair always derives the same child
// seed, so fan-out fault runs are reproducible. Counting triggers
// (StallEvery, FailAfter) restart with the fresh injector.
func (s FaultSchedule) Derive(stream int) FaultSchedule {
	s.Seed += int64(stream+1) * spawnSeedMix
	return s
}

// PowerOnState returns a deep copy of the target's power-on hardware
// state (the state every Spawn comes up in).
func (t *Target) PowerOnState() State {
	return t.powerOn.Clone()
}

// AdoptState applies a hardware state to the target without charging
// snapshot-transfer virtual time or touching the restore counters:
// the worker fan-out uses it to seed a freshly spawned clone with the
// primary target's live state before any accounted work starts. The
// dirty-tracking anchor is reset, exactly as after a real restore.
func (t *Target) AdoptState(s State) error {
	if t.dead {
		return fatalf("adopt", "target %s is dead after an unrecoverable failure", t.name)
	}
	if err := t.validateState(s); err != nil {
		return err
	}
	for _, inst := range t.order {
		if err := inst.sim.Restore(s[inst.cfg.Name]); err != nil {
			return integrityf("adopt "+inst.cfg.Name, "%v", err)
		}
	}
	t.reanchor(true)
	return nil
}
