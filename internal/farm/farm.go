// Package farm runs exploration campaigns as a service: a
// multi-tenant scheduler with per-tenant virtual-time and
// solver-query budgets, per-job crash-safe journals that survive
// server restarts, and a line-delimited JSON TCP protocol (server.go /
// client.go). Each job builds its own rig, exactly as a standalone
// run does, so no job ever sees another job's hardware state.
package farm

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
)

// Budget bounds one tenant's cumulative resource consumption across
// all its jobs. Zero fields are unlimited.
type Budget struct {
	// VirtualTime is the total modeled testbed time the tenant may
	// consume.
	VirtualTime time.Duration `json:"virtual_time,omitempty"`
	// SolverQueries is the total solver queries the tenant may issue.
	SolverQueries uint64 `json:"solver_queries,omitempty"`
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// terminal reports whether no further transitions can happen.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobInfo is the wire form of one job's state.
type JobInfo struct {
	ID     string           `json:"id"`
	Tenant string           `json:"tenant"`
	Status JobStatus        `json:"status"`
	Error  string           `json:"error,omitempty"`
	Result *campaign.Result `json:"result,omitempty"`
}

// jobState is the farm's in-memory record of one job.
type jobState struct {
	id      string
	tenant  string
	job     campaign.Job
	status  JobStatus
	err     string
	result  *campaign.Result
	resume  *core.Campaign // journaled progress recovered at startup
	cancel  context.CancelFunc
	history []campaign.Event
	subs    []chan campaign.Event
}

// tenantState tracks one tenant's budget accounting. Running jobs
// hold reservations for their clamped worst case, so concurrent jobs
// of one tenant can never jointly overshoot the budget.
type tenantState struct {
	name      string
	budget    Budget
	usedVT    time.Duration
	usedQ     uint64
	reserved  time.Duration // worst-case VT held by running jobs
	reservedQ uint64        // worst-case queries held by running jobs
	jobs      int
}

// remainingVT is the virtual time still grantable to a new job.
func (t *tenantState) remainingVT() (time.Duration, bool) {
	if t.budget.VirtualTime == 0 {
		return 0, false // unlimited
	}
	return t.budget.VirtualTime - t.usedVT - t.reserved, true
}

func (t *tenantState) remainingQ() (uint64, bool) {
	if t.budget.SolverQueries == 0 {
		return 0, false
	}
	if t.usedQ+t.reservedQ >= t.budget.SolverQueries {
		return 0, true
	}
	return t.budget.SolverQueries - t.usedQ - t.reservedQ, true
}

// Config parameterizes a Farm.
type Config struct {
	// StateDir persists per-job specs, results and campaign journals;
	// a Farm restarted on the same directory recovers every job.
	StateDir string
	// Slots bounds concurrently running jobs (default 2).
	Slots int
	// Tenants declares the known tenants and their budgets. Unknown
	// tenants are rejected at submit.
	Tenants map[string]Budget
}

// Farm schedules campaign jobs across tenants with fair-share
// ordering and budget enforcement.
type Farm struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantState
	jobs    map[string]*jobState
	queue   []string // job IDs awaiting a slot, submit order
	running int
	closed  bool

	// beforeSettle, when set (by tests, before the first Submit),
	// runs after a job's campaign completes but before settle charges
	// the tenant and frees the slot. It lets scheduling tests hold a
	// slot deterministically instead of racing the job's wall-clock
	// duration, which shrinks with every simulator speedup.
	beforeSettle func(jobID string)

	wg sync.WaitGroup
}

// New builds a Farm and recovers any jobs persisted in StateDir:
// finished jobs are reloaded for result serving, and jobs that were
// queued or running when the previous process died are re-enqueued —
// parallel jobs resume from their campaign journal instead of
// restarting.
func New(cfg Config) (*Farm, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	f := &Farm{
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		jobs:    make(map[string]*jobState),
	}
	f.cond = sync.NewCond(&f.mu)
	for name, b := range cfg.Tenants {
		f.tenants[name] = &tenantState{name: name, budget: b}
	}
	if err := f.recover(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.reapLocked() // a recovered tenant may already be out of budget
	f.mu.Unlock()
	f.wg.Add(1)
	go f.schedule()
	return f, nil
}

// ErrUnknownTenant rejects submissions from undeclared tenants.
var ErrUnknownTenant = errors.New("farm: unknown tenant")

// ErrBudgetExhausted rejects submissions from tenants with nothing
// left to spend.
var ErrBudgetExhausted = errors.New("farm: tenant budget exhausted")

// ErrUnknownJob reports a job ID the farm has never seen.
var ErrUnknownJob = errors.New("farm: unknown job")

func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b[:])
}

// Submit validates and enqueues a job for the tenant, returning the
// job ID. With a StateDir, a job whose state file cannot be written
// is refused: it would not survive a restart.
func (f *Farm) Submit(tenantName string, job campaign.Job) (string, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return "", errors.New("farm: closed")
	}
	ten, ok := f.tenants[tenantName]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	// Gate on spent budget only: reservations held by running jobs
	// release back, so queued work behind them is fine.
	if ten.budget.VirtualTime > 0 && ten.usedVT >= ten.budget.VirtualTime {
		return "", fmt.Errorf("%w: %s has no virtual time left", ErrBudgetExhausted, tenantName)
	}
	if ten.budget.SolverQueries > 0 && ten.usedQ >= ten.budget.SolverQueries {
		return "", fmt.Errorf("%w: %s has no solver queries left", ErrBudgetExhausted, tenantName)
	}
	js := &jobState{
		id:     newJobID(),
		tenant: tenantName,
		job:    job,
		status: StatusQueued,
	}
	if err := f.persistLocked(js); err != nil {
		return "", err
	}
	f.jobs[js.id] = js
	f.queue = append(f.queue, js.id)
	ten.jobs++
	f.cond.Signal()
	return js.id, nil
}

// schedule is the farm's scheduling loop: whenever a slot is free it
// starts the next queued job of the least-charged eligible tenant
// (fair share by spent+reserved virtual time, submit order within a
// tenant).
func (f *Farm) schedule() {
	defer f.wg.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for !f.closed && (f.running >= f.cfg.Slots || f.pickLocked() == "") {
			f.cond.Wait()
		}
		if f.closed {
			return
		}
		id := f.pickLocked()
		js := f.jobs[id]
		f.dequeueLocked(id)
		f.startLocked(js)
	}
}

// pickLocked chooses the next runnable job ID ("" if none): among
// tenants with queued jobs and budget left, the one that has charged
// the least virtual time so far; within a tenant, submit order.
func (f *Farm) pickLocked() string {
	type cand struct {
		id      string
		charged time.Duration
	}
	best := cand{}
	seen := map[string]bool{}
	for _, id := range f.queue {
		js := f.jobs[id]
		if seen[js.tenant] {
			continue // only the tenant's oldest queued job competes
		}
		seen[js.tenant] = true
		ten := f.tenants[js.tenant]
		if rem, capped := ten.remainingVT(); capped && rem <= 0 {
			continue // fully reserved: wait for a running job to settle
		}
		if rem, capped := ten.remainingQ(); capped && rem == 0 {
			continue
		}
		charged := ten.usedVT + ten.reserved
		if best.id == "" || charged < best.charged {
			best = cand{id: id, charged: charged}
		}
	}
	return best.id
}

func (f *Farm) dequeueLocked(id string) {
	for i, qid := range f.queue {
		if qid == id {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return
		}
	}
}

// startLocked reserves budget, clamps the job's own limits to the
// tenant's remainder and launches the runner goroutine.
func (f *Farm) startLocked(js *jobState) {
	ten := f.tenants[js.tenant]
	run := js.job
	var resVT time.Duration
	var resQ uint64
	if rem, capped := ten.remainingVT(); capped {
		if run.MaxVirtualTime == 0 || run.MaxVirtualTime > rem {
			run.MaxVirtualTime = rem
		}
		resVT = run.MaxVirtualTime
		ten.reserved += resVT
	}
	if rem, capped := ten.remainingQ(); capped {
		if run.MaxSolverQueries == 0 || run.MaxSolverQueries > rem {
			run.MaxSolverQueries = rem
		}
		resQ = run.MaxSolverQueries
		ten.reservedQ += resQ
	}
	ctx, cancel := context.WithCancel(context.Background())
	js.cancel = cancel
	js.status = StatusRunning
	f.running++
	_ = f.persistLocked(js) // best-effort past Submit
	f.wg.Add(1)
	go f.runJob(ctx, js, run, resVT, resQ)
}

// runJob executes one job outside the farm lock.
func (f *Farm) runJob(ctx context.Context, js *jobState, run campaign.Job, resVT time.Duration, resQ uint64) {
	defer f.wg.Done()
	events := make(chan campaign.Event, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			f.publish(js, ev)
		}
	}()

	opts := campaign.RunOptions{Events: events}
	if run.Workers > 1 {
		opts.Journal = f.journalPath(js.id)
		if js.resume != nil {
			opts.Resume = js.resume
			opts.Journal = ""
			js.resume = nil
		}
	}
	res, err := campaign.Runner{}.Run(ctx, run, opts)
	// Drain the event feed before settling: settle closes subscriber
	// channels, and every event must reach them first.
	close(events)
	<-done
	if f.beforeSettle != nil {
		f.beforeSettle(js.id)
	}
	f.settle(js, res, err, resVT, resQ)
}

// settle records a job's outcome, charges the tenant and frees the
// slot.
func (f *Farm) settle(js *jobState, res *campaign.Result, err error, resVT time.Duration, resQ uint64) {
	f.mu.Lock()
	ten := f.tenants[js.tenant]
	ten.reserved -= resVT
	ten.reservedQ -= resQ
	f.running--
	switch {
	case res != nil:
		js.status = StatusDone
		js.result = res
		ten.usedVT += res.VirtualTime
		if res.SolverQueries > 0 {
			ten.usedQ += uint64(res.SolverQueries)
		}
	case errors.Is(err, core.ErrInterrupted) && f.closed:
		// Interrupted by shutdown, not by a client: keep the job
		// persisted as running so a Farm reopened on this StateDir
		// re-enqueues it (parallel jobs resume from their journal).
	case errors.Is(err, core.ErrInterrupted):
		js.status = StatusCancelled
		js.err = err.Error()
	default:
		js.status = StatusFailed
		js.err = err.Error()
	}
	_ = f.persistLocked(js) // best-effort past Submit
	f.closeSubsLocked(js)
	f.reapLocked()
	f.cond.Broadcast()
	f.mu.Unlock()
}

// reapLocked fails queued jobs whose tenant has already spent its
// budget: consumption only grows, so no future settle can ever make
// room for them, and leaving them queued would strand waiters.
func (f *Farm) reapLocked() {
	for _, id := range append([]string(nil), f.queue...) {
		js := f.jobs[id]
		ten := f.tenants[js.tenant]
		spentVT := ten.budget.VirtualTime > 0 && ten.usedVT >= ten.budget.VirtualTime
		spentQ := ten.budget.SolverQueries > 0 && ten.usedQ >= ten.budget.SolverQueries
		if !spentVT && !spentQ {
			continue
		}
		f.dequeueLocked(id)
		js.status = StatusFailed
		js.err = fmt.Sprintf("%v: %s", ErrBudgetExhausted, js.tenant)
		_ = f.persistLocked(js) // best-effort past Submit
		f.closeSubsLocked(js)
	}
}

// publish appends to the job's event history and fans out to
// subscribers (non-blocking: a slow subscriber drops events).
func (f *Farm) publish(js *jobState, ev campaign.Event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(js.history) < 1024 {
		js.history = append(js.history, ev)
	}
	for _, sub := range js.subs {
		select {
		case sub <- ev:
		default:
		}
	}
}

func (f *Farm) closeSubsLocked(js *jobState) {
	for _, sub := range js.subs {
		close(sub)
	}
	js.subs = nil
}

// Subscribe returns a channel that replays the job's event history
// and then streams live events; it is closed when the job reaches a
// terminal state. The bool reports whether the job exists.
func (f *Farm) Subscribe(id string) (<-chan campaign.Event, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	js, ok := f.jobs[id]
	if !ok {
		return nil, false
	}
	ch := make(chan campaign.Event, 1024+len(js.history))
	for _, ev := range js.history {
		ch <- ev
	}
	if js.status.terminal() {
		close(ch)
		return ch, true
	}
	js.subs = append(js.subs, ch)
	return ch, true
}

// Cancel stops a queued or running job.
func (f *Farm) Cancel(id string) error {
	f.mu.Lock()
	js, ok := f.jobs[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch js.status {
	case StatusQueued:
		f.dequeueLocked(id)
		js.status = StatusCancelled
		js.err = "cancelled while queued"
		_ = f.persistLocked(js) // best-effort past Submit
		f.closeSubsLocked(js)
		f.mu.Unlock()
		return nil
	case StatusRunning:
		cancel := js.cancel
		f.mu.Unlock()
		cancel()
		return nil
	default:
		f.mu.Unlock()
		return fmt.Errorf("farm: job %s is already %s", id, js.status)
	}
}

// Job returns the wire form of one job.
func (f *Farm) Job(id string) (JobInfo, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	js, ok := f.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return JobInfo{
		ID: js.id, Tenant: js.tenant, Status: js.status,
		Error: js.err, Result: js.result,
	}, true
}

// Close cancels running jobs, stops the scheduler and waits for
// everything to settle. Interrupted parallel jobs keep their
// journals, so a Farm reopened on the same StateDir resumes them.
func (f *Farm) Close() {
	f.mu.Lock()
	f.closed = true
	var cancels []context.CancelFunc
	for _, js := range f.jobs {
		if js.status == StatusRunning && js.cancel != nil {
			cancels = append(cancels, js.cancel)
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	f.wg.Wait()
}

func (f *Farm) journalPath(id string) string {
	return filepath.Join(f.cfg.StateDir, "job-"+id+".hsj")
}
