package target

import (
	"fmt"

	"hardsnap/internal/vtime"
)

// Spawn builds an independent copy of the target for worker fan-out:
// same peripherals, kind, snapshot costs and hardware assertions,
// rebuilt from the original configuration so the clone comes up in
// exactly the parent's power-on state (peripheral construction and
// the power-on reset pulse are deterministic). The clone keeps its
// own mutation generation, anchor and violation list, and charges
// virtual time to the given clock.
func (t *Target) Spawn(name string, clock *vtime.Clock) (*Target, error) {
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
	return nt, nil
}

// AdoptState applies a hardware state to the target without charging
// snapshot-transfer virtual time or touching the restore counters:
// the worker fan-out uses it to seed a freshly spawned clone with the
// primary target's live state before any accounted work starts. The
// dirty-tracking anchor is reset, exactly as after a real restore.
func (t *Target) AdoptState(s State) error {
	if err := t.validateState(s); err != nil {
		return err
	}
	for _, inst := range t.order {
		if err := inst.sim.Restore(&s[inst.pos].HW); err != nil {
			return integrityf("adopt "+inst.cfg.Name, "%v", err)
		}
	}
	t.reanchor(true)
	return nil
}
