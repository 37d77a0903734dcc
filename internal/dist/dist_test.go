package dist

import (
	"context"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/target"
)

// distFirmware branches on six symbolic bits (64 paths) and aborts on
// every path where the low two bits are set (16 bugs) — enough bug
// snapshots to exercise the snapshot fabric, with a large untouched
// regfile peripheral whose chunks every bug record shares.
const distFirmware = `
_start:
		li r9, 0x40000100  ; regfile: fill every word with a nonzero
		addi r10, r0, 0    ; pattern so its snapshot chunk has real bulk
		li r11, 256
		li r12, 0xA5A50000
fill:
		sw r10, 0(r9)
		add r13, r12, r10
		sw r13, 4(r9)
		addi r10, r10, 1
		bne r10, r11, fill
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
		andi r5, r4, 3
		addi r7, r0, 3
		beq r5, r7, bad
		halt
bad:
		abort
`

func distJob(workers int) campaign.Job {
	return campaign.Job{
		Firmware: distFirmware,
		Peripherals: []target.PeriphConfig{
			{Name: "gpio0", Periph: "gpio"},
			// A deep register file the firmware never touches: its
			// chunk is identical across every bug snapshot, so the
			// digest fabric ships it zero times (both sides hold it
			// from the seed phase) while independent mode pays for it
			// in every result.
			{Name: "rf0", Periph: "regfile", Params: map[string]uint64{"DEPTH": 256}},
		},
		Searcher:         "bfs",
		Workers:          workers,
		KeepBugSnapshots: true,
	}
}

// startNodes launches n in-process dist servers on loopback TCP and
// returns their addresses.
func startNodes(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*Server, n)
	for i := range addrs {
		srv := NewServer()
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[i] = addr.String()
		srvs[i] = srv
	}
	return addrs, srvs
}

func runLocal(t *testing.T, job campaign.Job) *campaign.Result {
	t.Helper()
	res, err := campaign.Runner{}.Run(context.Background(), job, campaign.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameOutcome(t *testing.T, want, got *campaign.Result) {
	t.Helper()
	if got.Fingerprint != want.Fingerprint {
		t.Fatalf("fingerprint mismatch:\n  got  %s\n  want %s", got.Fingerprint, want.Fingerprint)
	}
	if got.Paths != want.Paths {
		t.Errorf("paths = %d, want %d", got.Paths, want.Paths)
	}
	if len(got.Bugs) != len(want.Bugs) {
		t.Errorf("bugs = %d, want %d", len(got.Bugs), len(want.Bugs))
	}
	if got.VirtualTime != want.VirtualTime {
		t.Errorf("virtual time = %v, want %v", got.VirtualTime, want.VirtualTime)
	}
}

// TestDistMatchesLocal is the core determinism gate: a 3-node
// distributed run must be byte-identical — bugs, paths, virtual time —
// to the same job run on one machine.
func TestDistMatchesLocal(t *testing.T) {
	job := distJob(4)
	want := runLocal(t, job)

	addrs, _ := startNodes(t, 3)
	got, err := Run(context.Background(), job, Options{Nodes: addrs, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)

	if got.Report == nil || len(got.Report.Nodes) == 0 {
		t.Fatal("no per-node reports in distributed result")
	}
	subtrees, remote := 0, 0
	for _, nr := range got.Report.Nodes {
		subtrees += nr.Subtrees
		if nr.Node != "local" {
			remote += nr.Subtrees
		}
	}
	if remote == 0 {
		t.Error("no subtree ran remotely")
	}
	if subtrees == 0 {
		t.Error("per-node reports carry no subtree counts")
	}
}

// TestDistZeroNodes exercises the local fallback executor: with no
// nodes configured the driver runs the whole campaign itself and still
// matches the single-machine runner.
func TestDistZeroNodes(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)
	got, err := Run(context.Background(), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)
}

// TestDistSharedFabricSavesBytes checks that the digest fabric ships
// at most a fifth of the snapshot bytes that inlining every bug record in
// its result would have cost. The inline cost is not re-measured by a
// second run: every BugRef carries its record's full encoded size and
// the driver totals them as SnapBytesFull.
func TestDistSharedFabricSavesBytes(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)

	addrs, _ := startNodes(t, 2)
	res, err := Run(context.Background(), job, Options{Nodes: addrs, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, res)
	var shipped, full uint64
	for _, nr := range res.Report.Nodes {
		shipped += nr.SnapBytesShipped
		full += nr.SnapBytesFull
	}
	if shipped == 0 {
		t.Fatal("run shipped zero snapshot bytes; expected bug snapshots on the wire")
	}
	t.Logf("snapshot bytes: shipped=%d, full-equivalent=%d", shipped, full)
	if shipped*5 > full {
		t.Errorf("fabric shipped %d bytes, want at most a fifth of the inline cost %d", shipped, full)
	}
}

// killOnFirstRun arms victim to die mid-subtree: its first run op
// reports on the returned channel, a watcher then closes the node, and
// every run op it has accepted stays in flight until the node's
// context is cancelled — so the driver always loses work to the death,
// whatever the scheduling.
func killOnFirstRun(t *testing.T, victim *Server) <-chan struct{} {
	t.Helper()
	hit := make(chan struct{})
	var once sync.Once
	victim.testBeforeRun = func(int) {
		once.Do(func() { close(hit) })
		<-victim.ctx.Done()
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-hit
		victim.Close()
	}()
	t.Cleanup(func() {
		once.Do(func() { close(hit) })
		<-closed
	})
	return hit
}

// TestDistNodeDeath is the node-churn chaos gate: a node killed while
// running a subtree must not perturb the outcome — the supervisor
// requeues the in-flight index onto survivors and the merged result
// stays fingerprint-identical to an undisturbed single-machine run.
func TestDistNodeDeath(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)

	addrs, srvs := startNodes(t, 2)
	hit := killOnFirstRun(t, srvs[1])
	// The survivor holds its first subtrees until the victim has one
	// too, so it cannot drain the queue before the kill matters.
	srvs[0].testBeforeRun = func(int) { <-hit }

	got, err := Run(context.Background(), job, Options{Nodes: addrs, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)

	rec := got.Report.Recovery
	if rec.Requeues < 1 {
		t.Errorf("node died with a subtree in flight but nothing was requeued: %+v", rec)
	}
	for _, nr := range got.Report.Nodes {
		if nr.Node == "local" {
			t.Errorf("local fallback ran %d subtrees while a node was alive", nr.Subtrees)
		}
	}
}

// TestDistNodeDeathLocalFallback kills the only node. The supervisor
// spends its restart budget redialing, then starts the driver's local
// executors, which finish the campaign through seeded panics of their
// own: chaos seed 4 panics subtrees 2, 4, 6 and 7 (0 and 1 were in
// flight on the node, so their retries are exempt), more than the two
// fallback workers could take without the restart budget the fallback
// fleet gets for itself. With NoLocalFallback the same death fails the
// campaign instead.
func TestDistNodeDeathLocalFallback(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)
	job.Chaos = &core.ChaosSchedule{Seed: 4, PanicRate: 0.3}

	addrs, srvs := startNodes(t, 1)
	killOnFirstRun(t, srvs[0])
	got, err := Run(context.Background(), job, Options{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)
	rec := got.Report.Recovery
	if rec.Requeues == 0 || rec.WorkerRestarts == 0 || rec.PanicsRecovered < 2 {
		t.Errorf("recovery counters = %+v, want requeues, restarts and >= 2 recovered panics", rec)
	}
	local := 0
	for _, nr := range got.Report.Nodes {
		if nr.Node == "local" {
			local = nr.Subtrees
		}
	}
	if local == 0 {
		t.Error("no subtree ran on the local fallback after the only node died")
	}

	addrs, srvs = startNodes(t, 1)
	killOnFirstRun(t, srvs[0])
	if _, err := Run(context.Background(), job, Options{Nodes: addrs, NoLocalFallback: true}); err == nil {
		t.Fatal("campaign survived the death of its only node with local fallback disabled")
	}
}

// TestDistChaosIdentity is the dist row of core's TestChaosIdentity:
// with no node attached every subtree runs on the driver's local
// executors, and seeded panics on them are recovered by the shared
// supervisor to the undisturbed fingerprint.
func TestDistChaosIdentity(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)
	job.Chaos = &core.ChaosSchedule{Seed: 1, PanicRate: 0.3}
	got, err := Run(context.Background(), job, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)
	if rec := got.Report.Recovery; rec.PanicsRecovered == 0 || rec.FailoverEvents == 0 {
		t.Errorf("chaos injected nothing: %+v", rec)
	}
}

// TestDistJournalResume kills the driver (simulated process death after
// four subtree completions) mid-campaign and resumes from the journal:
// the completed subtrees replay from disk, only the remainder re-runs,
// and the final result is identical to an undisturbed run.
func TestDistJournalResume(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)
	jpath := filepath.Join(t.TempDir(), "dist.journal")

	addrs, _ := startNodes(t, 2)
	dying := job
	dying.Chaos = &core.ChaosSchedule{DieAfterSubtrees: 4}
	if _, err := Run(context.Background(), dying, Options{Nodes: addrs, Journal: jpath}); err != core.ErrInterrupted {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}

	cam, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if cam.Complete {
		t.Fatal("journal claims complete after an interrupted run")
	}
	if len(cam.Results) < 4 {
		t.Fatalf("journal holds %d completed subtrees, want >= 4", len(cam.Results))
	}

	addrs2, _ := startNodes(t, 2)
	got, err := Run(context.Background(), job, Options{Nodes: addrs2, Resume: cam})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)
	if n := got.Report.Recovery.ResumedSubtrees; n != len(cam.Results) {
		t.Errorf("resumed %d subtrees from the journal, want %d", n, len(cam.Results))
	}

	cam2, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam2.Complete {
		t.Error("journal not marked complete after resumed run finished")
	}
}

// TestDistSeedDrainJournal pins the journal of a campaign that finishes
// inside the seed phase: written by the same writer as every other
// campaign journal, it carries the run fingerprint and a completion
// record, so resuming it is refused. (The driver's own copy of the
// writer used to leave an empty fingerprint and no completion record,
// a header any other seed-draining job validated against.)
func TestDistSeedDrainJournal(t *testing.T) {
	job := campaign.Job{
		Firmware: `
_start:
		li r1, 0x100
		addi r2, r0, 1
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		andi r4, r4, 1
		beq r4, r0, even
		halt
even:
		halt
`,
		Searcher: "bfs",
		Workers:  2,
	}
	jpath := filepath.Join(t.TempDir(), "drain.journal")
	addrs, _ := startNodes(t, 2)
	res, err := Run(context.Background(), job, Options{Nodes: addrs, Journal: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != 2 || len(res.Report.Workers) != 0 {
		t.Fatalf("paths = %d, worker rows = %d; want a 2-path run that never fanned out", res.Paths, len(res.Report.Workers))
	}

	// The same job journaled by the single-machine runner is the
	// reference for what the header must say.
	lpath := filepath.Join(t.TempDir(), "local.journal")
	if _, err := (campaign.Runner{}).Run(context.Background(), job, campaign.RunOptions{Journal: lpath}); err != nil {
		t.Fatal(err)
	}
	local, err := core.LoadCampaign(lpath)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam.Complete {
		t.Error("seed-drained campaign not marked complete")
	}
	if cam.Header.Fingerprint == "" || cam.Header.Fingerprint != local.Header.Fingerprint {
		t.Errorf("header fingerprint = %q, want the run fingerprint %q", cam.Header.Fingerprint, local.Header.Fingerprint)
	}
	_, err = Run(context.Background(), job, Options{Nodes: addrs, Resume: cam})
	if err == nil || !strings.Contains(err.Error(), "already complete") {
		t.Fatalf("resume of a complete campaign: err = %v, want an already-complete refusal", err)
	}
}

// TestDistFrontierMismatch ensures a node refuses a campaign whose
// frontier it cannot reproduce — the guard against heterogeneous
// binaries silently corrupting a distributed run.
func TestDistFrontierMismatch(t *testing.T) {
	addrs, _ := startNodes(t, 1)
	job := distJob(1)

	setup, err := job.SetupConfig()
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := core.Setup(setup)
	if err != nil {
		t.Fatal(err)
	}
	f, err := analysis.Engine.Frontier(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	id := f.ID()
	id.SeedsHash = "deadbeef"

	nc, err := dialNode(addrs[0], func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 5*time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.c.Close()
	resp, err := nc.roundTrip(Request{Op: "prepare", Job: &job, Frontier: &id})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("node accepted a mismatched frontier")
	}
}
