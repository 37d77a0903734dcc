package dist

import (
	"context"
	"net"
	"path/filepath"
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
// less than half the snapshot bytes that inlining every bug record in
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
	if shipped*2 >= full {
		t.Errorf("fabric shipped %d bytes, want < half of the inline cost %d", shipped, full)
	}
}

// TestDistNodeDeath is the node-churn chaos gate: a node killed while
// running a subtree must not perturb the outcome — the driver requeues
// the in-flight index onto survivors and the merged result stays
// fingerprint-identical to an undisturbed single-machine run.
func TestDistNodeDeath(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)

	addrs, srvs := startNodes(t, 2)
	victim := srvs[1]
	var once sync.Once
	killed := make(chan struct{})
	victim.testBeforeRun = func(int) {
		once.Do(func() { close(killed) })
		// Give Close a moment to land mid-subtree.
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-killed
		victim.Close()
	}()

	got, err := Run(context.Background(), job, Options{Nodes: addrs, SlotsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	assertSameOutcome(t, want, got)

	var reconnectsOrDeath bool
	for _, nr := range got.Report.Nodes {
		if nr.Node == addrs[1] && nr.Subtrees < got.Paths {
			reconnectsOrDeath = true
		}
	}
	if !reconnectsOrDeath {
		t.Log("victim completed everything before the kill landed (timing); outcome still verified identical")
	}
}

// TestDistJournalResume kills the driver (context cancel) mid-campaign
// and resumes from the journal: the completed subtrees replay from
// disk, only the remainder re-runs, and the final result is identical
// to an undisturbed run.
func TestDistJournalResume(t *testing.T) {
	job := distJob(2)
	want := runLocal(t, job)
	jpath := filepath.Join(t.TempDir(), "dist.journal")

	addrs, _ := startNodes(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan campaign.Event, 256)
	go func() {
		for ev := range events {
			if ev.Kind == campaign.EventProgress && ev.SubtreesDone >= 4 {
				cancel()
				return
			}
		}
	}()
	_, err := Run(ctx, job, Options{Nodes: addrs, Journal: jpath, Events: events})
	cancel()
	if err == nil {
		t.Skip("campaign finished before the cancel landed; resume path not exercised")
	}
	if err != core.ErrInterrupted {
		t.Fatalf("interrupted run: err = %v, want ErrInterrupted", err)
	}

	cam, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if cam.Complete {
		t.Fatal("journal claims complete after an interrupted run")
	}
	if len(cam.Results) == 0 {
		t.Fatal("journal holds no completed subtrees; cancel landed before any finished")
	}

	addrs2, _ := startNodes(t, 2)
	got, err := Run(context.Background(), job, Options{Nodes: addrs2, Resume: cam})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, want, got)

	cam2, err := core.LoadCampaign(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !cam2.Complete {
		t.Error("journal not marked complete after resumed run finished")
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
