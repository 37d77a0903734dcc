package target

// LiveState returns a cost-free deep copy of the current hardware
// state, without charging snapshot virtual time or touching the
// stats: orchestration-level bookkeeping (the pool's post-recycle
// integrity check), not an analysis operation.
func (t *Target) LiveState() State { return t.snapshotRaw() }

// Recycle wipes the target back to the state a fresh build comes up
// in, so a pool can hand it to the next job without paying the
// elaboration cost of Spawn. The hardware returns to the power-on
// snapshot; assertions and violations are cleared; the stats are
// zeroed and the clock rewinds to zero. The mutation generation and
// anchor sequence keep counting: they only ever prove identity within
// one run, and each run anchors afresh.
//
// Recycle fails only if the power-on snapshot no longer loads (an
// integrity failure); such a target must be discarded, not pooled.
func (t *Target) Recycle() error {
	for _, inst := range t.order {
		hw := t.powerOn[inst.cfg.Name]
		if err := inst.sim.Restore(hw); err != nil {
			return integrityf("recycle "+inst.cfg.Name, "%v", err)
		}
		inst.asserts = nil
	}
	t.asserts = nil
	t.violations = nil
	t.stats = Stats{}
	t.reanchor(true)
	t.clock.Reset()
	return nil
}
