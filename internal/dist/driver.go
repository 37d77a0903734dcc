// The driver side of a distributed run: Run, the node-connection slots
// it passes to core.Frontier.Run, and the driver ends of the solver and
// snapshot fabrics. No work queue lives here; see the package comment.

package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
)

// Options parameterize a distributed run.
type Options struct {
	// Nodes are the worker addresses (host:port). Empty runs the
	// whole campaign locally (the driver is its own node).
	Nodes []string
	// Dial overrides the connection factory (tests inject latency
	// with remote.NewLatencyConn); nil dials plain TCP.
	Dial func(addr string) (net.Conn, error)
	// SlotsPerNode is the number of subtrees a node runs
	// concurrently (0 = the job's worker count).
	SlotsPerNode int
	// Journal / Resume are the crash-safe campaign journal of any
	// parallel run (core.Config.JournalPath / Resume): a killed driver
	// resumes with LoadCampaign.
	Journal string
	Resume  *core.Campaign
	// NoLocalFallback fails the campaign when no node is left to run
	// on instead of finishing the backlog on the driver's own rigs.
	NoLocalFallback bool
	// Events receives typed progress events (never blocking).
	Events chan<- campaign.Event
	// ReportDir receives per-bug crash reports.
	ReportDir string
}

// relay is the driver's solver-fabric hub: a deduplicated ledger of
// every verdict discovered anywhere (driver seed phase, local
// fallback subtrees, any node), with a cursor per node recording what
// that node has already been offered. Imports into the driver's own
// cache never re-enter the ledger (solver.Cache.Import does not log),
// so entries cannot echo in cycles.
type relay struct {
	cache *solver.Cache

	mu          sync.Mutex
	seen        map[solver.CacheKey]bool
	log         []solver.WireEntry
	localCursor int
	nodeCursor  map[string]int
}

func newRelay(cache *solver.Cache) *relay {
	return &relay{
		cache:      cache,
		seen:       make(map[solver.CacheKey]bool),
		nodeCursor: make(map[string]int),
	}
}

// pullLocked drains the driver cache's own changelog into the ledger.
func (r *relay) pullLocked() {
	delta, cur := r.cache.DeltaSince(r.localCursor)
	r.localCursor = cur
	for _, e := range delta {
		if !r.seen[e.Key] {
			r.seen[e.Key] = true
			r.log = append(r.log, e)
		}
	}
}

// delta returns the ledger entries node has not been offered yet and
// advances its cursor. Delivery is best-effort: if the carrying
// request fails, the entries are simply not re-sent — the fabric is a
// performance channel, never a correctness dependency.
func (r *relay) delta(node string) []solver.WireEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pullLocked()
	cur := r.nodeCursor[node]
	if cur >= len(r.log) {
		return nil
	}
	out := make([]solver.WireEntry, len(r.log)-cur)
	copy(out, r.log[cur:])
	r.nodeCursor[node] = len(r.log)
	return out
}

// offer ingests verdicts a node discovered: unseen entries join the
// ledger and the driver's own cache (so local fallback work benefits
// too).
func (r *relay) offer(entries []solver.WireEntry) {
	if len(entries) == 0 {
		return
	}
	r.mu.Lock()
	fresh := entries[:0:0]
	for _, e := range entries {
		if !r.seen[e.Key] {
			r.seen[e.Key] = true
			r.log = append(r.log, e)
			fresh = append(fresh, e)
		}
	}
	r.mu.Unlock()
	r.cache.Import(fresh)
}

// driver holds the fabric state of one distributed campaign: the
// solver relay, the fetched bug records and the per-node reports.
// Scheduling is not its business — the subtrees run under the same
// supervisor as a local parallel run (core.Frontier.Run); the driver
// only supplies the slots whose executors reach a node.
type driver struct {
	f     *core.Frontier
	relay *relay
	dial  func(addr string) (net.Conn, error)

	mu      sync.Mutex
	fetched map[string]*snapshot.Record
	nodes   []*node
}

// Run executes the job across opts.Nodes and returns the same result
// a single-machine run of the job would: the merge is the
// deterministic seed-order schedule of width job.Workers, so bugs,
// paths and virtual time are byte-identical regardless of node count
// (core.Fingerprint is the regression gate).
func Run(ctx context.Context, job campaign.Job, opts Options) (*campaign.Result, error) {
	setup, err := job.SetupConfig()
	if err != nil {
		return nil, err
	}
	setup.Engine.JournalPath = opts.Journal
	setup.Engine.Resume = opts.Resume
	setup.Engine.Progress = campaign.ProgressHook(opts.Events)
	analysis, err := core.Setup(setup)
	if err != nil {
		return nil, err
	}
	kind := "none"
	if analysis.Target != nil {
		kind = analysis.Target.Kind()
	}
	campaign.Emit(opts.Events, campaign.Event{Kind: campaign.EventStarted, Target: kind})

	f, err := analysis.Engine.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	d := &driver{
		f:       f,
		relay:   newRelay(f.SolverCache()),
		dial:    opts.Dial,
		fetched: make(map[string]*snapshot.Record),
	}
	if d.dial == nil {
		d.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	workers := setup.Engine.Workers // >= 1: Job.SetupConfig resolved the default
	perNode := opts.SlotsPerNode
	if perNode <= 0 {
		perNode = workers
	}

	// Everything before this point — setup, assembly, the driver's own
	// seed phase — is identical however many nodes are attached; the
	// exploration clock covers only the fan-out: node connection
	// through the last subtree result.
	exploreStart := time.Now()

	// Remote workers run the fan-out; the driver's own rigs are the
	// fallback the supervisor starts once no remote worker is left —
	// or the whole fleet when there is no node to begin with. A run
	// that finished inside the seed phase connects to nobody.
	var slots, fallback []core.Slot
	local := &core.NodeReport{Node: "local"}
	if f.Done() == nil {
		if err := d.connectNodes(job, opts.Nodes); len(d.nodes) == 0 && opts.NoLocalFallback {
			return nil, fmt.Errorf("dist: no node reachable and local fallback disabled: %v", err)
		}
		for _, n := range d.nodes {
			for i := 0; i < perNode; i++ {
				slots = append(slots, n.slot(d))
			}
		}
		if !opts.NoLocalFallback {
			fallback = d.localSlots(local, workers)
		}
		if len(slots) == 0 {
			slots, fallback = fallback, nil
		}
	}
	rep, err := f.Run(ctx, slots, fallback)
	exploreWall := time.Since(exploreStart)
	if errors.Is(err, core.ErrInterrupted) {
		campaign.Emit(opts.Events, campaign.Event{Kind: campaign.EventInterrupted})
	}
	if err != nil {
		return nil, err
	}

	var statsWG sync.WaitGroup
	for _, n := range d.nodes {
		statsWG.Add(1)
		go func(n *node) {
			defer statsWG.Done()
			n.harvestStats(d)
		}(n)
	}
	statsWG.Wait()
	for _, n := range d.nodes {
		rep.Nodes = append(rep.Nodes, *n.report)
	}
	if local.Subtrees > 0 {
		local.SolverCache = f.SolverCache().Stats()
		rep.Nodes = append(rep.Nodes, *local)
	}

	res, err := campaign.NewResult(job, analysis, rep, opts.Events, opts.ReportDir)
	if err != nil {
		return nil, err
	}
	res.ExploreWall = exploreWall
	return res, nil
}

// localSlots wraps n of the frontier's local-rig slots so the subtrees
// they complete are counted in the "local" node report.
func (d *driver) localSlots(report *core.NodeReport, n int) []core.Slot {
	slots := d.f.LocalSlots(n)
	for i, build := range slots {
		slots[i] = func(ctx context.Context, w *core.Worker) (core.Executor, error) {
			exec, err := build(ctx, w)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, idx, attempt int) (*core.SubtreeResult, error) {
				res, err := exec(ctx, idx, attempt)
				if err == nil {
					d.count(report, res)
				}
				return res, err
			}, nil
		}
	}
	return slots
}

// count credits one finished subtree to a node report.
func (d *driver) count(report *core.NodeReport, res *core.SubtreeResult) {
	d.mu.Lock()
	report.Subtrees++
	report.Paths += len(res.Report.Finished)
	report.VirtualTime += res.Report.VirtualTime
	d.mu.Unlock()
}

// node is the driver's handle on one remote worker.
type node struct {
	addr   string
	token  string
	job    campaign.Job
	report *core.NodeReport
}

// conn is one slot's connection to a node.
type nodeConn struct {
	c    net.Conn
	msgs *campaign.MessageReader
	enc  *json.Encoder
}

func dialNode(addr string, dial func(string) (net.Conn, error)) (*nodeConn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &nodeConn{c: c, msgs: campaign.NewMessageReader(c), enc: json.NewEncoder(c)}, nil
}

func (nc *nodeConn) roundTrip(req Request) (Response, error) {
	if err := nc.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := nc.msgs.Read(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// connectNodes prepares the campaign on every address in parallel and
// keeps the nodes that answered, in address order; the error joins the
// failures of the others.
func (d *driver) connectNodes(job campaign.Job, addrs []string) error {
	job.Nodes = nil // a node must not recursively fan out
	nodes := make([]*node, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			n := &node{addr: addr, job: job, report: &core.NodeReport{Node: addr}}
			nc, err := dialNode(addr, d.dial)
			if err != nil {
				errs[i] = fmt.Errorf("dist: node %s: %w", addr, err)
				return
			}
			defer nc.c.Close()
			if errs[i] = n.prepare(d, nc); errs[i] == nil {
				nodes[i] = n
			}
		}(i, addr)
	}
	wg.Wait()
	for _, n := range nodes {
		if n != nil {
			d.nodes = append(d.nodes, n)
		}
	}
	return errors.Join(errs...)
}

func (n *node) prepare(d *driver, nc *nodeConn) error {
	id := d.f.ID()
	resp, err := nc.roundTrip(Request{
		Op:       "prepare",
		Job:      &n.job,
		Frontier: &id,
	})
	if err != nil {
		return fmt.Errorf("dist: node %s: prepare: %w", n.addr, err)
	}
	if !resp.OK {
		return fmt.Errorf("dist: node %s: %s", n.addr, resp.Error)
	}
	n.token = resp.Token
	return nil
}

// slot is one work slot on the node: each generation owns a connection
// and runs subtrees over it. A dead connection surfaces as an executor
// error, so the supervisor requeues the subtree and, within its
// restart budget, spawns a replacement generation — which redials and
// prepares again (a restarted node has lost the campaign). The
// connection closes with the generation's context, which also unblocks
// a round trip in flight when the run is cancelled.
func (n *node) slot(d *driver) core.Slot {
	return func(ctx context.Context, w *core.Worker) (core.Executor, error) {
		nc, err := dialNode(n.addr, d.dial)
		if err != nil {
			return nil, fmt.Errorf("dist: node %s: %w", n.addr, err)
		}
		context.AfterFunc(ctx, func() { nc.c.Close() })
		if w.Gen > 0 {
			if err := n.prepare(d, nc); err != nil {
				return nil, err
			}
			d.mu.Lock()
			n.report.Reconnects++
			d.mu.Unlock()
		}
		return func(_ context.Context, idx, _ int) (*core.SubtreeResult, error) {
			res, err := n.runSubtree(d, nc, idx)
			if err == nil {
				d.count(n.report, res)
			}
			return res, err
		}, nil
	}
}

// harvestStats collects the node-side cache stats for the per-node
// report. Pure bookkeeping, run after the exploration clock stops.
func (n *node) harvestStats(d *driver) {
	nc, err := dialNode(n.addr, d.dial)
	if err != nil {
		return
	}
	defer nc.c.Close()
	if resp, err := nc.roundTrip(Request{Op: "stats", Token: n.token}); err == nil && resp.Status != nil {
		n.report.SolverCache = resp.Status.Solver
	}
}

// runSubtree executes one remote subtree: ship the solver-fabric
// delta, run, ingest the returned verdicts, and re-attach bug
// snapshots (fetched over the digest fabric).
func (n *node) runSubtree(d *driver, nc *nodeConn, idx int) (*core.SubtreeResult, error) {
	resp, err := nc.roundTrip(Request{
		Op:      "run",
		Token:   n.token,
		Subtree: idx,
		Solver:  d.relay.delta(n.addr),
	})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("node %s: %s", n.addr, resp.Error)
	}
	res, err := core.DecodeSubtreeResult(resp.Result)
	if err != nil {
		return nil, fmt.Errorf("node %s: corrupt result: %w", n.addr, err)
	}
	d.relay.offer(resp.Solver)
	for _, ref := range resp.Bugs {
		rec, shipped, err := d.fetchRecord(n, nc, ref)
		if err != nil {
			return nil, err
		}
		d.mu.Lock()
		n.report.SnapBytesShipped += shipped
		n.report.SnapBytesFull += ref.Bytes
		d.mu.Unlock()
		res.BugSnaps[ref.State] = rec
	}
	return res, nil
}

// fetchRecord materializes one bug snapshot from the fabric. A digest
// any node already shipped is served from the driver's cache with
// zero wire bytes; otherwise a delta frame crosses (chunks the node
// ledger knows the driver holds arrive as digests and resolve against
// the driver's store), with a full re-fetch as the fallback when the
// driver's store no longer resolves a referenced chunk.
func (d *driver) fetchRecord(n *node, nc *nodeConn, ref BugRef) (*snapshot.Record, uint64, error) {
	d.mu.Lock()
	rec, ok := d.fetched[ref.Digest]
	d.mu.Unlock()
	if ok {
		return rec, 0, nil
	}
	var shipped uint64
	// A delta first; if the node's ledger said we hold a chunk we can
	// no longer resolve (evicted since), again with everything inline.
	for _, full := range []bool{false, true} {
		resp, err := nc.roundTrip(Request{Op: "fetch", Token: n.token, Digest: ref.Digest, Full: full})
		if err != nil {
			return nil, shipped, err
		}
		if !resp.OK {
			return nil, shipped, fmt.Errorf("node %s: %s", n.addr, resp.Error)
		}
		shipped += uint64(len(resp.Data))
		rec, missing, err := snapshot.DecodeDelta(resp.Data, d.f.Store().PeriphByDigest)
		if err != nil {
			return nil, shipped, fmt.Errorf("node %s: fetch %s: %w", n.addr, ref.Digest, err)
		}
		if len(missing) > 0 {
			continue
		}
		// Intern the record so its chunks resolve future delta frames,
		// and pin it in the fetched cache for digest-level dedup.
		d.f.Store().Put(*rec)
		d.mu.Lock()
		d.fetched[ref.Digest] = rec
		d.mu.Unlock()
		return rec, shipped, nil
	}
	return nil, shipped, fmt.Errorf("node %s: fetch %s: full frame still unresolved", n.addr, ref.Digest)
}
