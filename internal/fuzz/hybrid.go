package fuzz

import (
	"fmt"
	"time"

	"hardsnap/internal/symexec"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// updateFrontier runs after each execution in hybrid mode: every
// branch site this exec reached that is still one-sided accumulates a
// hit, remembers the reaching input, and — once frontierK mutations
// failed to flip it — is escalated to the concolic loop.
func (w *worker) updateFrontier() {
	for i := 0; i < w.nHit; i++ {
		s := &w.sites[w.hitList[i]]
		if s.seenTaken && s.seenFall {
			continue
		}
		if !s.hasRepr || s.hits == 0 {
			copy(s.repr, w.input)
			s.hasRepr = true
		}
		s.hits++
		if s.hits >= frontierK && !s.attempted {
			s.attempted = true
			if err := w.concolicAttempt(s); err != nil {
				// Concolic failures (replay divergence, solver give-up)
				// cost a wasted attempt, never the campaign.
				continue
			}
		}
	}
}

// mmioRecorder interposes on the CPU's bus to capture the value
// sequence a concrete execution reads from hardware, so the concolic
// replay can reproduce the exact same machine behavior without the
// hardware in the loop.
type mmioRecorder struct {
	inner vm.MMIO
	reads []uint32
}

func (r *mmioRecorder) ReadMMIO(addr uint32, size int) (uint32, error) {
	v, err := r.inner.ReadMMIO(addr, size)
	if err == nil {
		r.reads = append(r.reads, v)
	}
	return v, err
}

func (r *mmioRecorder) WriteMMIO(addr uint32, size int, val uint32) error {
	return r.inner.WriteMMIO(addr, size, val)
}

// mmioReplay feeds a recorded read sequence back to the symbolic
// executor as constants. Writes are discarded: their hardware effects
// are only visible through subsequent reads, which the recording
// already captured.
type mmioReplay struct {
	reads []uint32
	i     int
}

func (r *mmioReplay) Read(st *symexec.State, addr uint32) (uint32, error) {
	if r.i >= len(r.reads) {
		return 0, fmt.Errorf("fuzz: concolic replay diverged (read past recorded MMIO trace)")
	}
	v := r.reads[r.i]
	r.i++
	return v, nil
}

func (r *mmioReplay) Write(st *symexec.State, addr uint32, val uint32) error {
	return nil
}

// concolicAttempt tries to solve an input that covers the unseen side
// of frontier site s:
//
//  1. Re-execute the representative input with an MMIO recorder in
//     the loop, capturing the exact hardware read sequence (charged
//     real virtual time, like any execution).
//  2. Concolically replay the same input in internal/symexec with
//     the recorded reads standing in for the hardware, collecting
//     the path condition and every input-dependent branch.
//  3. Ask the solver for an input that preserves the path prefix up
//     to the frontier branch but takes the other side.
//  4. Queue the model as this worker's next input; execution then
//     validates it and the shared corpus admits it on merit.
func (w *worker) concolicAttempt(s *branchSite) error {
	w.c.concolicRuns.Add(1)

	// Step 1: recording run.
	if err := w.reset(); err != nil {
		return err
	}
	w.setInput(s.repr)
	var rec *mmioRecorder
	if w.rig.Router != nil {
		rec = &mmioRecorder{inner: w.rig.Router}
		w.cpu.SetMMIO(rec)
		defer w.cpu.SetMMIO(w.rig.Router)
	}
	// The concolic start state mirrors the concrete machine right
	// after reset, before any input is consumed. Under snapshot reset
	// that machine is w.cpuSnap itself; only the other strategies (and
	// the exec before the hint) pay for a fresh RAM image.
	pre := w.cpuSnap
	if pre == nil {
		pre = w.cpu.Snapshot()
	}
	if _, _, err := w.execOne(); err != nil {
		return err
	}
	w.cov.Reset()
	w.nHit = 0
	if w.irqsThisExec > 0 {
		// Interrupts fired: the replay cannot reproduce asynchronous
		// dispatch, so this candidate is skipped (the site stays
		// attempted until a new side is seen).
		return fmt.Errorf("fuzz: %d interrupts during recording, skipping concolic replay", w.irqsThisExec)
	}

	// Step 2: concolic replay.
	if w.symex == nil {
		ex, err := symexec.New(symexec.Config{VM: w.cpu.Config()}, w.cfg.Program, nil)
		if err != nil {
			return err
		}
		w.symex = ex
	}
	if rec != nil {
		w.symex.SetMMIO(&mmioReplay{reads: rec.reads})
	} else {
		w.symex.SetMMIO(nil)
	}
	st, err := w.symex.StateFromConcrete(pre.PC, pre.Regs, pre.Mem, pre.EPC, pre.InHandler, pre.Pending)
	if err != nil {
		return err
	}
	res, err := w.symex.RunConcolic(st, s.repr, int(w.cfg.MaxStepsPerExec))
	if err != nil {
		return err
	}
	// The replay interprets the same instructions the hardware-driven
	// engine would; charge it the same virtual-time rate.
	w.rig.Clock.Advance(time.Duration(res.Steps) * vtime.VMInstruction)

	// Step 3: find the frontier branch in the trace and flip it
	// toward the unseen side.
	wantTaken := !s.seenTaken // the side we still need covered
	for i, br := range res.Branches {
		if br.PC != s.pc || br.Taken == wantTaken {
			continue
		}
		ok, model := w.symex.SolveFlip(res, i)
		if !ok {
			return fmt.Errorf("fuzz: flip query at pc=%#x not sat", s.pc)
		}
		if len(res.State.SymInputs) == 0 {
			return fmt.Errorf("fuzz: path at pc=%#x consumed no symbolic input", s.pc)
		}
		tag := res.State.SymInputs[0].Tag
		seed := symexec.ApplyModel(model, tag, s.repr)
		// Step 4: queue for the next iteration; the concrete run
		// validates the (deliberately under-constrained) model.
		w.pendingSeeds = append(w.pendingSeeds, seed)
		w.c.solvedSeeds.Add(1)
		return nil
	}
	return fmt.Errorf("fuzz: frontier branch pc=%#x not in concolic trace", s.pc)
}
