// Crash-safety primitives for parallel exploration: the recovery
// counters threaded through Report, and the deterministic chaos
// schedule the tests use to prove the supervision machinery
// preserves results under fire.
package core

import (
	"errors"
	"math/rand"
	"time"
)

// ErrInterrupted reports a run stopped by context cancellation (user
// interrupt) or by a simulated process death (ChaosSchedule.
// DieAfterSubtrees). When campaign journaling is enabled the journal
// is flushed first, so the run can be continued with Config.Resume.
var ErrInterrupted = errors.New("core: run interrupted")

// RecoveryStats summarizes supervision and crash-recovery activity
// during a parallel run. An undisturbed run reports all zeros (except
// the journal counters when journaling is enabled).
type RecoveryStats struct {
	// WorkerRestarts counts replacement workers spawned after a worker
	// died (panic, fatal target error, heartbeat deposition).
	WorkerRestarts uint64
	// Requeues counts in-flight subtrees returned to the work queue
	// after their worker failed.
	Requeues uint64
	// PanicsRecovered counts worker panics absorbed by the supervisor.
	PanicsRecovered uint64
	// HeartbeatDeaths counts workers deposed because their heartbeat
	// stalled past the heartbeat timeout.
	HeartbeatDeaths uint64
	// FailoverEvents counts recoveries where exploration continued on a
	// re-established vehicle: a subtree re-seeded onto a fresh rig
	// after its original failed, or a severed remote link redialed.
	FailoverEvents uint64
	// ResumedSubtrees counts subtree results replayed from a campaign
	// journal instead of re-explored (Config.Resume).
	ResumedSubtrees int
	// JournalRecords / JournalBytes measure campaign journal output.
	JournalRecords uint64
	JournalBytes   uint64
	// JournalWall is the host time spent encoding, appending and
	// syncing the campaign journal — the direct measurement of its
	// overhead (wall-clock A/B can't resolve a cost this small above
	// host noise).
	JournalWall time.Duration
	// RecoveryWall is the real (host) time spent waiting out restart
	// backoff and rebuilding replacement rigs. It is wall time, not
	// virtual time: recovery never charges the modeled hardware clock,
	// which is how chaos runs keep virtual-time identity.
	RecoveryWall time.Duration
}

// ChaosSchedule is a deterministic, seedable failure injector for
// parallel runs — the exploration-layer sibling of target.
// FaultSchedule. Events are planned per subtree index (never per
// physical worker or claim order), and only a subtree's first attempt
// is targeted, so a chaos run remains a pure function of the seed and
// its recovery must converge to the undisturbed result.
type ChaosSchedule struct {
	// Seed initializes the per-subtree event PRNG.
	Seed int64
	// PanicRate is the probability a subtree's first attempt panics
	// mid-run (exercises supervisor panic recovery).
	PanicRate float64
	// KillRate is the probability a subtree's first attempt dies with
	// a fatal worker error (exercises requeue + replacement spawn).
	KillRate float64
	// HangRate is the probability a subtree's first attempt stops
	// making progress (exercises heartbeat deposition; requires
	// Config.HeartbeatInterval, defaulted when this rate is set).
	HangRate float64
	// SeverRate is the probability a subtree's first attempt severs
	// its target link mid-run. Only meaningful for targets that
	// support link severing (remote clients); otherwise a no-op.
	SeverRate float64
	// DieAfterSubtrees, when > 0, simulates whole-process death
	// (SIGKILL) after that many subtree completions in this process:
	// the run stops with ErrInterrupted, leaving exactly the journal a
	// killed process would leave. Resume runs should clear this.
	DieAfterSubtrees int
}

type chaosEvent int

// chaosMeanSteps centers the subtree step at which an event fires:
// events land mid-subtree, after real work has happened.
const chaosMeanSteps = 40

const (
	chaosNone chaosEvent = iota
	chaosPanic
	chaosKill
	chaosHang
	chaosSever
)

// plan decides the event (and the subtree step it fires at) for one
// attempt at one subtree. Deterministic in (Seed, idx); attempts
// after the first are never targeted, so recovery always converges.
func (c *ChaosSchedule) plan(idx, attempt int) (chaosEvent, uint64) {
	if c == nil || attempt > 0 {
		return chaosNone, 0
	}
	rng := rand.New(rand.NewSource(c.Seed<<20 ^ int64(idx)*2654435761))
	u := rng.Float64()
	at := 1 + uint64(rng.Int63n(2*chaosMeanSteps))
	switch {
	case u < c.PanicRate:
		return chaosPanic, at
	case u < c.PanicRate+c.KillRate:
		return chaosKill, at
	case u < c.PanicRate+c.KillRate+c.HangRate:
		return chaosHang, at
	case u < c.PanicRate+c.KillRate+c.HangRate+c.SeverRate:
		return chaosSever, at
	}
	return chaosNone, 0
}

// linkSeverer is implemented by targets whose transport can be cut
// mid-run and re-established (remote protocol clients). The chaos
// harness severs through this seam; recovery is the client's own
// redial + re-attach machinery.
type linkSeverer interface {
	SeverLink() error
}

// restartBackoff is the bounded exponential delay before spawning the
// gen-th replacement worker: failures that kill workers repeatedly
// (a dead farm node) back off instead of hot-looping target spawns.
func restartBackoff(gen int) time.Duration {
	shift := gen - 1
	if shift > 6 {
		shift = 6
	}
	return time.Millisecond << uint(shift)
}
