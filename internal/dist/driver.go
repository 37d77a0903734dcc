// The driver side of a distributed run: Fanout, the node-connection
// slots it passes to core.Frontier.Run, and the driver ends of the
// solver and snapshot fabrics. No work queue lives here; see the
// package comment.

package dist

import (
	"context"
	"fmt"
	"sync"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
)

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

	mu      sync.Mutex
	fetched map[string]*snapshot.Record
	nodes   []*node
}

// Fanout returns the campaign.RunOptions.Fanout that runs a frontier's
// subtrees on the dist nodes at addrs, job.Workers at a time per node,
// with the driver's own rigs as the fallback once no node is left — or
// as the whole fleet when none is reachable. The merge is the
// deterministic seed-order schedule of width job.Workers, so bugs,
// paths and virtual time are byte-identical to a single-machine run of
// the job regardless of node count (core.Fingerprint is the regression
// gate).
func Fanout(addrs []string) func(context.Context, campaign.Job, *core.Frontier) (*core.Report, error) {
	return func(ctx context.Context, job campaign.Job, f *core.Frontier) (*core.Report, error) {
		d := &driver{
			f:       f,
			relay:   newRelay(f.SolverCache()),
			fetched: make(map[string]*snapshot.Record),
		}
		return d.run(ctx, job, addrs)
	}
}

func (d *driver) run(ctx context.Context, job campaign.Job, addrs []string) (*core.Report, error) {
	workers := d.f.ID().Workers
	// A run that finished inside the seed phase connects to nobody.
	var slots, fallback []core.Slot
	local := &core.NodeReport{Node: "local"}
	if d.f.Done() == nil {
		d.connectNodes(job, addrs)
		for _, n := range d.nodes {
			for i := 0; i < workers; i++ {
				slots = append(slots, n.slot(d))
			}
		}
		fallback = d.localSlots(local, workers)
		if len(slots) == 0 {
			slots, fallback = fallback, nil
		}
	}
	rep, err := d.f.Run(ctx, slots, fallback)
	if err != nil {
		return nil, err
	}

	var statsWG sync.WaitGroup
	for _, n := range d.nodes {
		statsWG.Add(1)
		go func(n *node) {
			defer statsWG.Done()
			n.harvestStats()
		}(n)
	}
	statsWG.Wait()
	for _, n := range d.nodes {
		rep.Nodes = append(rep.Nodes, *n.report)
	}
	if local.Subtrees > 0 {
		local.SolverCache = d.f.SolverCache().Stats()
		rep.Nodes = append(rep.Nodes, *local)
	}
	return rep, nil
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

// connectNodes prepares the campaign on every address in parallel and
// keeps the nodes that answered, in address order.
func (d *driver) connectNodes(job campaign.Job, addrs []string) {
	nodes := make([]*node, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			n := &node{addr: addr, job: job, report: &core.NodeReport{Node: addr}}
			nc, err := campaign.Dial(addr)
			if err != nil {
				return
			}
			defer nc.Close()
			if n.prepare(d, nc) == nil {
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
}

func (n *node) prepare(d *driver, nc *campaign.Conn) error {
	id := d.f.ID()
	var resp Response
	if err := nc.RoundTrip(Request{Op: "prepare", Job: &n.job, Frontier: &id}, &resp); err != nil {
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
		nc, err := campaign.Dial(n.addr)
		if err != nil {
			return nil, fmt.Errorf("dist: node %s: %w", n.addr, err)
		}
		context.AfterFunc(ctx, func() { nc.Close() })
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
// report.
func (n *node) harvestStats() {
	nc, err := campaign.Dial(n.addr)
	if err != nil {
		return
	}
	defer nc.Close()
	var resp Response
	if nc.RoundTrip(Request{Op: "stats", Token: n.token}, &resp) == nil && resp.Status != nil {
		n.report.SolverCache = resp.Status.Solver
	}
}

// runSubtree executes one remote subtree: ship the solver-fabric
// delta, run, ingest the returned verdicts, and re-attach bug
// snapshots (fetched over the digest fabric).
func (n *node) runSubtree(d *driver, nc *campaign.Conn, idx int) (*core.SubtreeResult, error) {
	var resp Response
	err := nc.RoundTrip(Request{
		Op:      "run",
		Token:   n.token,
		Subtree: idx,
		Solver:  d.relay.delta(n.addr),
	}, &resp)
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
// any node already shipped is served from the driver's cache with zero
// wire bytes; otherwise one delta frame crosses, in which the chunks
// of the seed snapshots arrive as digests — the FrontierID proved the
// driver's store holds them until the frontier closes — and every
// other chunk inline.
func (d *driver) fetchRecord(n *node, nc *campaign.Conn, ref BugRef) (*snapshot.Record, uint64, error) {
	d.mu.Lock()
	rec, ok := d.fetched[ref.Digest]
	d.mu.Unlock()
	if ok {
		return rec, 0, nil
	}
	var resp Response
	if err := nc.RoundTrip(Request{Op: "fetch", Token: n.token, Digest: ref.Digest}, &resp); err != nil {
		return nil, 0, err
	}
	if !resp.OK {
		return nil, 0, fmt.Errorf("node %s: %s", n.addr, resp.Error)
	}
	rec, missing, err := snapshot.DecodeDelta(resp.Data, d.f.Store().PeriphByDigest)
	if err == nil && len(missing) > 0 {
		err = fmt.Errorf("%d chunks match no seed snapshot", len(missing))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("node %s: fetch %s: %w", n.addr, ref.Digest, err)
	}
	d.mu.Lock()
	d.fetched[ref.Digest] = rec
	d.mu.Unlock()
	return rec, uint64(len(resp.Data)), nil
}
