package farm

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/target"
)

// fanoutFirmware branches on six symbolic bits up front (64 paths),
// does per-path gpio traffic, and aborts on exactly one path — the
// same workload internal/campaign tests with.
const fanoutFirmware = `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		li r8, 0x40000000
		andi r5, r4, 1
		beq r5, r0, b1
		nop
b1:
		andi r5, r4, 2
		beq r5, r0, b2
		nop
b2:
		andi r5, r4, 4
		beq r5, r0, b3
		nop
b3:
		andi r5, r4, 8
		beq r5, r0, b4
		nop
b4:
		andi r5, r4, 16
		beq r5, r0, b5
		nop
b5:
		andi r5, r4, 32
		beq r5, r0, work
		nop
work:
		sw r4, 0(r8)
		lw r6, 0(r8)
		andi r5, r4, 63
		addi r7, r0, 63
		bne r5, r7, fine
		abort
fine:
		halt
`

func testJob(workers int) campaign.Job {
	return campaign.Job{
		Firmware:    fanoutFirmware,
		Peripherals: []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}},
		Searcher:    "bfs",
		Workers:     workers,
	}
}

func newFarm(t *testing.T, cfg Config) *Farm {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func mustSubmit(t *testing.T, f *Farm, tenant string, job campaign.Job) string {
	t.Helper()
	id, err := f.Submit(tenant, job)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// mustWait blocks until the job is terminal: its event feed closes
// then, as the server's stream op relies on.
func mustWait(t *testing.T, f *Farm, id string) JobInfo {
	t.Helper()
	events, ok := f.Subscribe(id)
	if !ok {
		t.Fatalf("unknown job %s", id)
	}
	for range events {
	}
	info, _ := f.Job(id)
	if !info.Status.terminal() {
		t.Fatalf("job %s: event feed closed at status %s", id, info.Status)
	}
	return info
}

// tenantUsage reads a tenant's budget accounting under the farm lock.
func tenantUsage(f *Farm, name string) tenantState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *f.tenants[name]
}

// waitStatus polls until the job reaches the wanted (non-terminal)
// status.
func waitStatus(t *testing.T, f *Farm, id string, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := f.Job(id)
		if ok && info.Status == want {
			return
		}
		if ok && info.Status.terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", id, info.Status, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, want)
}

// standaloneResult runs the job through the plain Runner — the
// identity baseline every farm execution must match.
func standaloneResult(t *testing.T, job campaign.Job) *campaign.Result {
	t.Helper()
	res, err := campaign.Runner{}.Run(context.Background(), job, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFarmIdentity: a job run by the farm — cold admission, then a
// recycled warm target — reports the exact standalone fingerprint.
func TestFarmIdentity(t *testing.T) {
	job := testJob(4)
	want := standaloneResult(t, job)

	f := newFarm(t, Config{
		StateDir: t.TempDir(),
		Tenants:  map[string]Budget{"acme": {}},
		PoolSize: 1,
	})
	info1 := mustWait(t, f, mustSubmit(t, f, "acme", job))
	if info1.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", info1.Status, info1.Error)
	}
	if info1.Result.Fingerprint != want.Fingerprint {
		t.Fatalf("farm run diverged from standalone:\nfarm:       %s\nstandalone: %s",
			info1.Result.Fingerprint, want.Fingerprint)
	}

	// Same rig again: the first job's recycled target (or a background
	// refill) is idle by the time it settled, so admission must be
	// warm — and stay result-identical.
	info2 := mustWait(t, f, mustSubmit(t, f, "acme", job))
	if info2.Status != StatusDone {
		t.Fatalf("job 2: %s (%s)", info2.Status, info2.Error)
	}
	if !info2.Warm {
		t.Error("second same-rig job was not served from the warm pool")
	}
	if info2.Result.Fingerprint != want.Fingerprint {
		t.Fatalf("warm run diverged: %s vs %s", info2.Result.Fingerprint, want.Fingerprint)
	}
	f.pool.mu.Lock()
	st := f.pool.stats
	f.pool.mu.Unlock()
	if st.coldBuilds == 0 || st.warmHits == 0 || st.recycled == 0 {
		t.Errorf("pool stats show no warm cycle: %+v", st)
	}
}

// TestFarmMultiTenantBudgets: concurrent tenants with virtual-time
// budgets; no tenant's charged consumption may exceed its budget
// beyond one scheduling step of overshoot.
func TestFarmMultiTenantBudgets(t *testing.T) {
	job := testJob(1) // serial: reported virtual time is exact, not a makespan
	clean := standaloneResult(t, job)
	budget := clean.VirtualTime + clean.VirtualTime/2 // one full run plus half

	f := newFarm(t, Config{
		StateDir: t.TempDir(),
		Slots:    4,
		Tenants: map[string]Budget{
			"alpha": {VirtualTime: budget},
			"beta":  {VirtualTime: budget},
			"gamma": {}, // unlimited
		},
	})
	var ids []string
	for i := 0; i < 3; i++ {
		for _, tenant := range []string{"alpha", "beta", "gamma"} {
			id, err := f.Submit(tenant, job)
			if errors.Is(err, ErrBudgetExhausted) {
				continue // later submissions may already see the budget spent
			}
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		info := mustWait(t, f, id)
		switch info.Status {
		case StatusDone:
		case StatusFailed:
			if !strings.Contains(info.Error, "budget") {
				t.Errorf("job %s failed for a non-budget reason: %s", id, info.Error)
			}
		default:
			t.Errorf("job %s: unexpected status %s", id, info.Status)
		}
	}
	slack := clean.VirtualTime / 10
	for _, name := range []string{"alpha", "beta", "gamma"} {
		u := tenantUsage(f, name)
		if u.reserved != 0 || u.reservedQ != 0 {
			t.Errorf("tenant %s still holds reservations: %v, %d queries", u.name, u.reserved, u.reservedQ)
		}
		if u.budget.VirtualTime == 0 {
			// The unlimited tenant must have run all three jobs in full.
			if u.usedVT < 3*clean.VirtualTime {
				t.Errorf("unlimited tenant clipped: %v < %v", u.usedVT, 3*clean.VirtualTime)
			}
			continue
		}
		if u.usedVT > u.budget.VirtualTime+slack {
			t.Errorf("tenant %s overshot its budget: used %v of %v",
				u.name, u.usedVT, u.budget.VirtualTime)
		}
		// The cap must actually have clipped work, not just been set.
		if u.usedVT < u.budget.VirtualTime {
			t.Errorf("tenant %s never reached its budget: used %v of %v",
				u.name, u.usedVT, u.budget.VirtualTime)
		}
	}
}

// TestFarmFairShare: with one slot and a charged heavy tenant, a
// fresh tenant's first job runs before the heavy tenant's backlog.
func TestFarmFairShare(t *testing.T) {
	job := testJob(1)
	f := newFarm(t, Config{
		StateDir: t.TempDir(),
		Slots:    1,
		Tenants:  map[string]Budget{"heavy": {}, "light": {}},
	})

	// Hold the first job's settle open until both contenders are
	// queued: jobs finish in milliseconds, so racing the submits
	// against b1's real wall-clock duration is a coin flip.
	release := make(chan struct{})
	var first atomic.Bool
	var omu sync.Mutex
	var settleOrder []string
	f.beforeSettle = func(id string) {
		omu.Lock()
		settleOrder = append(settleOrder, id)
		omu.Unlock()
		if first.CompareAndSwap(false, true) {
			<-release
		}
	}

	// Occupy the single slot, then queue the contenders behind it.
	b1 := mustSubmit(t, f, "heavy", job)
	waitStatus(t, f, b1, StatusRunning)
	h2 := mustSubmit(t, f, "heavy", job)
	l1 := mustSubmit(t, f, "light", job)
	close(release)

	// When b1 settles, heavy has charged a full run and light nothing,
	// so the scheduler must hand the slot to light despite heavy's job
	// being queued first. Completion order is judged from the settle
	// hook, not polled status — with one slot and millisecond jobs,
	// h2 can legitimately finish between l1's completion and a status
	// read, so polling races the very ordering under test.
	mustWait(t, f, l1)
	mustWait(t, f, h2)
	omu.Lock()
	defer omu.Unlock()
	pos := func(id string) int {
		for i, got := range settleOrder {
			if got == id {
				return i
			}
		}
		t.Fatalf("job %s never settled (order: %v)", id, settleOrder)
		return -1
	}
	if pos(l1) > pos(h2) {
		t.Error("fair share violated: heavy's backlog job finished before light's first job")
	}
}

// TestFarmRestartResume is the SIGKILL gate: a farm process dies
// mid-campaign — simulated by handcrafting the exact on-disk state a
// killed server leaves behind (a state file still marked running plus
// the flushed campaign journal) — and a new farm on the same StateDir
// must resume the job from the journal and land on the standalone
// fingerprint.
func TestFarmRestartResume(t *testing.T) {
	job := testJob(4)
	want := standaloneResult(t, job)
	dir := t.TempDir()

	// Produce the partial journal the way a killed farm would have:
	// the same runner, chaos-killed after 3 subtree completions.
	jpath := filepath.Join(dir, "job-deadbeef.hsj")
	killed := job
	killed.Chaos = &core.ChaosSchedule{DieAfterSubtrees: 3}
	_, err := campaign.Runner{}.Run(context.Background(), killed,
		campaign.RunOptions{Journal: jpath})
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}

	// The state file of a job that was running when the process died,
	// plus one that was still queued.
	writeState(t, dir, persistedJob{
		ID: "deadbeef", Tenant: "acme", Job: job, Status: StatusRunning,
	})
	writeState(t, dir, persistedJob{
		ID: "cafe0001", Tenant: "acme", Job: testJob(1), Status: StatusQueued,
	})

	f := newFarm(t, Config{
		StateDir: dir,
		Tenants:  map[string]Budget{"acme": {}},
	})
	info := mustWait(t, f, "deadbeef")
	if info.Status != StatusDone {
		t.Fatalf("resumed job: %s (%s)", info.Status, info.Error)
	}
	if info.Result.Fingerprint != want.Fingerprint {
		t.Fatalf("resumed job diverged: %s vs %s", info.Result.Fingerprint, want.Fingerprint)
	}
	if info.Result.Report == nil || info.Result.Report.Recovery.ResumedSubtrees == 0 {
		t.Error("restart re-explored everything instead of replaying the journal")
	}
	if queued := mustWait(t, f, "cafe0001"); queued.Status != StatusDone {
		t.Fatalf("recovered queued job: %s (%s)", queued.Status, queued.Error)
	}

	// And the accounting survives yet another restart.
	f.Close()
	f2 := newFarm(t, Config{StateDir: dir, Tenants: map[string]Budget{"acme": {}}})
	if u := tenantUsage(f2, "acme"); u.usedVT == 0 || u.jobs != 2 {
		t.Errorf("tenant accounting lost across restart: %+v", u)
	}
	info2, ok := f2.Job("deadbeef")
	if !ok || info2.Status != StatusDone || info2.Result.Fingerprint != want.Fingerprint {
		t.Errorf("job state lost across restart: %+v", info2)
	}
}

func writeState(t *testing.T, dir string, pj persistedJob) {
	t.Helper()
	data, err := json.MarshalIndent(pj, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-"+pj.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFarmCancelAndErrors covers the unhappy paths.
func TestFarmCancelAndErrors(t *testing.T) {
	f := newFarm(t, Config{
		StateDir: t.TempDir(),
		Slots:    1,
		Tenants:  map[string]Budget{"acme": {}},
	})
	if _, err := f.Submit("ghost", testJob(1)); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant: err = %v", err)
	}
	if _, err := f.Submit("acme", campaign.Job{}); err == nil {
		t.Error("invalid job accepted")
	}
	if err := f.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown cancel: err = %v", err)
	}

	// Fill the slot, then cancel a job queued behind it.
	running := mustSubmit(t, f, "acme", testJob(1))
	queued := mustSubmit(t, f, "acme", testJob(1))
	if err := f.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if info := mustWait(t, f, queued); info.Status != StatusCancelled {
		t.Errorf("queued cancel: %s", info.Status)
	}
	mustWait(t, f, running)
}

// TestServerProtocol drives the whole stack over TCP: submit,
// stream, results, cancel, and the error paths.
func TestServerProtocol(t *testing.T) {
	f := newFarm(t, Config{
		StateDir: t.TempDir(),
		Tenants:  map[string]Budget{"acme": {}},
		PoolSize: 1,
	})
	srv := NewServer(f)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := testJob(4)
	want := standaloneResult(t, job)
	id, err := c.Submit("acme", job)
	if err != nil {
		t.Fatal(err)
	}

	// Stream on a dedicated connection until the job completes. The
	// subscription replays history, so a late subscriber still sees
	// the full lifecycle.
	sc, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	seen := map[campaign.EventKind]bool{}
	if err := sc.Stream(id, func(ev campaign.Event) {
		seen[ev.Kind] = true
	}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []campaign.EventKind{campaign.EventStarted, campaign.EventCompleted} {
		if !seen[kind] {
			t.Errorf("stream missed %q (saw %v)", kind, seen)
		}
	}

	// The stream ended, so the job is terminal.
	info, err := c.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("job over TCP: %+v", info)
	}
	if info.Result.Fingerprint != want.Fingerprint {
		t.Fatalf("TCP run diverged: %s vs %s", info.Result.Fingerprint, want.Fingerprint)
	}
	if len(info.Result.Bugs) != 1 {
		t.Fatalf("bugs over the wire: %d", len(info.Result.Bugs))
	}

	if u := tenantUsage(f, "acme"); u.usedVT == 0 || u.jobs != 1 {
		t.Errorf("tenant accounting after a job over the wire: %+v", u)
	}
	if _, err := c.Submit("ghost", job); err == nil {
		t.Error("unknown tenant accepted over the wire")
	}
	if _, err := c.Results("nope"); err == nil {
		t.Error("unknown job served over the wire")
	}
	if err := c.Cancel(id); err == nil {
		t.Error("cancelling a finished job must fail")
	}
}

// TestServerDropsOversizedRequest: a request one byte past
// campaign.MaxMessage is refused and its connection dropped, and the
// server goes on serving other connections.
func TestServerDropsOversizedRequest(t *testing.T) {
	f := newFarm(t, Config{StateDir: t.TempDir(), Tenants: map[string]Budget{"acme": {}}})
	srv := NewServer(f)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// {"op":"aaa…"} with MaxMessage+1 bytes before its newline. The
		// write fails once the server has dropped the connection.
		const pre, post = `{"op":"`, "\"}\n"
		body := strings.Repeat("a", campaign.MaxMessage+1-len(pre)-len(post)+1)
		_, _ = conn.Write([]byte(pre + body + post))
	}()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	msgs := campaign.NewMessageReader(conn)
	var resp Response
	if err := msgs.Read(&resp); err == nil {
		// The refusal may beat the close to the client, or be lost to a
		// reset when the server closes with the request unread.
		if !strings.Contains(resp.Error, "exceeds") {
			t.Fatalf("oversized request answered %.80q, want a refusal", resp.Error)
		}
		err = msgs.Read(&resp)
		if err == nil {
			t.Fatal("connection still open after the refusal")
		}
	} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept reading the oversized request")
	}

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Results("nope"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("server stopped serving after an oversized request: %v", err)
	}
}
