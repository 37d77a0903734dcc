package target

import (
	"hardsnap/internal/bus"
	"hardsnap/internal/vtime"
)

// Interface is the execution-vehicle surface the analysis engine
// programs against. The concrete *Target implements it for in-process
// simulator and FPGA targets; internal/remote implements it for
// out-of-process targets reached over the wire (protocol v3), so the
// engine — including the parallel worker fan-out and the snapshot
// manager's generation-proven skips and delta restores — runs
// unchanged against either.
//
// The contract mirrors *Target exactly: Save/Restore/Reset re-anchor
// dirty tracking (AnchorSeq advances), Generation moves iff hardware
// state changed value, RestoreDelta returns (false, nil) when no
// incremental path exists and the caller must fall back to Restore.
// Fault injection is not part of it: the one link that can fail is the
// wire, disturbed by wrapping its connection (FaultConn).
type Interface interface {
	// Identity and plumbing.
	Name() string
	Kind() string
	Clock() *vtime.Clock
	Stats() Stats
	StateBits() uint
	Port(name string) (bus.Port, error)

	// Execution.
	Advance(n uint64) error
	Reset() error
	TakeViolations() []Violation

	// Snapshotting and its skip-proof bookkeeping.
	Generation() uint64
	AnchorSeq() uint64
	Save() (State, error)
	Restore(s State) error
	RestoreDelta(s State) (bool, error)
	AdoptState(s State) error

	// Worker fan-out. stream is unused: no implementation derives
	// anything from it.
	SpawnWorker(name string, clock *vtime.Clock, stream int) (Interface, error)
}

var _ Interface = (*Target)(nil)

// SpawnWorker is Spawn behind the Interface: it exists because Spawn
// predates the interface and returns the concrete *Target.
func (t *Target) SpawnWorker(name string, clock *vtime.Clock, _ int) (Interface, error) {
	nt, err := t.Spawn(name, clock)
	if err != nil {
		return nil, err
	}
	return nt, nil
}

// PendingViolations reports how many hardware property violations
// have accumulated without draining them (TakeViolations drains). The
// remote server piggybacks this count on every response so clients
// answer violation-free TakeViolations calls without a round trip.
func (t *Target) PendingViolations() int { return len(t.violations) }
