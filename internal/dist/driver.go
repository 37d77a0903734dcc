package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
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
	// Journal / Resume reuse the crash-safe campaign journal: the
	// driver journals every subtree completion exactly like a local
	// parallel run, so a killed driver resumes with LoadCampaign.
	Journal string
	Resume  *core.Campaign
	// NoLocalFallback fails the campaign when every node dies
	// instead of finishing the backlog on the driver.
	NoLocalFallback bool
	// Events receives typed progress events (never blocking).
	Events chan<- campaign.Event
	// ReportDir receives per-bug crash reports.
	ReportDir string
}

func emit(ch chan<- campaign.Event, ev campaign.Event) {
	if ch == nil {
		return
	}
	select {
	case ch <- ev:
	default:
	}
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

// driver owns the work queue and the merged fabric state of one
// distributed campaign.
type driver struct {
	ctx    context.Context
	f      *core.Frontier
	log    *core.CampaignLog
	relay  *relay
	events chan<- campaign.Event
	total  int

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []int
	inflight  int
	results   map[int]*core.SubtreeResult
	liveNodes int
	failed    error
	fetched   map[string]*snapshot.Record
	reports   []*core.NodeReport
	nodes     []*node
}

// claim hands out the next subtree index. Local claims (the driver's
// fallback executor) stand aside while any node is alive, so remote
// capacity is used first and the E17 speedup measures the nodes.
func (d *driver) claim(local bool) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.failed != nil || d.ctx.Err() != nil {
			return 0, false
		}
		if len(d.pending) > 0 && (!local || d.liveNodes == 0) {
			idx := d.pending[0]
			d.pending = d.pending[1:]
			d.inflight++
			return idx, true
		}
		if d.inflight == 0 && len(d.pending) == 0 {
			return 0, false
		}
		d.cond.Wait()
	}
}

func (d *driver) complete(res *core.SubtreeResult) error {
	d.mu.Lock()
	d.results[res.Index()] = res
	d.inflight--
	done, total := len(d.results), d.total
	err := d.log.Append(res)
	d.cond.Broadcast()
	d.mu.Unlock()
	emit(d.events, campaign.Event{Kind: campaign.EventProgress, SubtreesDone: done, Subtrees: total})
	return err
}

func (d *driver) requeue(idx int) {
	d.mu.Lock()
	d.pending = append(d.pending, idx)
	d.inflight--
	d.cond.Broadcast()
	d.mu.Unlock()
}

func (d *driver) fail(err error) {
	d.mu.Lock()
	if d.failed == nil {
		d.failed = err
	}
	d.cond.Broadcast()
	d.mu.Unlock()
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
	analysis, err := core.Setup(setup)
	if err != nil {
		return nil, err
	}
	kind := "none"
	if analysis.Target != nil {
		kind = analysis.Target.Kind()
	}
	emit(opts.Events, campaign.Event{Kind: campaign.EventStarted, Target: kind})

	f, err := analysis.Engine.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var (
		clog    *core.CampaignLog
		resumed []*core.SubtreeResult
	)
	if opts.Resume != nil {
		clog, resumed, err = f.ResumeCampaignLog(opts.Resume)
	} else {
		clog, err = f.NewCampaignLog(opts.Journal)
	}
	if err != nil {
		return nil, err
	}
	defer clog.Close()

	if rep := f.Done(); rep != nil {
		// The seed phase finished every path; nothing to distribute.
		return finish(job, analysis, rep, opts)
	}

	d := &driver{
		ctx:     ctx,
		f:       f,
		log:     clog,
		relay:   newRelay(f.SolverCache()),
		events:  opts.Events,
		total:   f.NumSeeds(),
		results: make(map[int]*core.SubtreeResult),
		fetched: make(map[string]*snapshot.Record),
	}
	d.cond = sync.NewCond(&d.mu)
	have := make(map[int]bool, len(resumed))
	for _, r := range resumed {
		d.results[r.Index()] = r
		have[r.Index()] = true
	}
	for i := 0; i < f.NumSeeds(); i++ {
		if !have[i] {
			d.pending = append(d.pending, i)
		}
	}

	slots := opts.SlotsPerNode
	if slots <= 0 {
		slots = setup.Engine.Workers
	}
	if slots <= 0 {
		slots = 1
	}
	dial := opts.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}

	// Wake anyone blocked in claim when the context dies.
	stopWake := context.AfterFunc(ctx, func() { d.cond.Broadcast() })
	defer stopWake()

	// Everything before this point — setup, assembly, the driver's own
	// seed phase — is identical however many nodes are attached; the
	// exploration clock covers only the fan-out: node connection
	// through the last subtree result.
	exploreStart := time.Now()

	var wg sync.WaitGroup
	var prepErrs []error
	var prepMu sync.Mutex
	var prepWG sync.WaitGroup
	for _, addr := range opts.Nodes {
		prepWG.Add(1)
		go func(addr string) {
			defer prepWG.Done()
			n, err := d.connectNode(job, addr, dial)
			if err != nil {
				prepMu.Lock()
				prepErrs = append(prepErrs, err)
				prepMu.Unlock()
				return
			}
			d.mu.Lock()
			d.liveNodes++
			d.reports = append(d.reports, n.report)
			d.nodes = append(d.nodes, n)
			d.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.work(d, slots, dial)
			}()
		}(addr)
	}
	prepWG.Wait()
	if d.liveNodesNow() == 0 && opts.NoLocalFallback {
		return nil, fmt.Errorf("dist: no node reachable and local fallback disabled: %v", errors.Join(prepErrs...))
	}

	localRep := &core.NodeReport{Node: "local"}
	if !opts.NoLocalFallback {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.localWork(localRep)
		}()
	}
	wg.Wait()
	exploreWall := time.Since(exploreStart)

	var statsWG sync.WaitGroup
	for _, n := range d.nodes {
		statsWG.Add(1)
		go func(n *node) {
			defer statsWG.Done()
			n.harvestStats(d, dial)
		}(n)
	}
	statsWG.Wait()

	if err := ctx.Err(); err != nil {
		_ = clog.Sync()
		emit(opts.Events, campaign.Event{Kind: campaign.EventInterrupted})
		return nil, core.ErrInterrupted
	}
	d.mu.Lock()
	ferr := d.failed
	d.mu.Unlock()
	if ferr != nil {
		_ = clog.Sync()
		return nil, ferr
	}

	rs := make([]*core.SubtreeResult, 0, len(d.results))
	for _, r := range d.results {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Index() < rs[j].Index() })
	if len(rs) != d.total {
		return nil, fmt.Errorf("dist: campaign incomplete: %d/%d subtrees", len(rs), d.total)
	}
	if err := clog.Finish(); err != nil {
		return nil, err
	}

	rep := f.Merge(rs)
	if localRep.Subtrees > 0 {
		localRep.SolverCache = f.SolverCache().Stats()
		d.reports = append(d.reports, localRep)
	}
	for _, nr := range d.reports {
		rep.Nodes = append(rep.Nodes, *nr)
	}
	res, err := finish(job, analysis, rep, opts)
	if err != nil {
		return nil, err
	}
	res.ExploreWall = exploreWall
	return res, nil
}

func (d *driver) liveNodesNow() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.liveNodes
}

// localWork is the driver's fallback executor: it claims work only
// while no node is alive (at campaign start with zero configured
// nodes, or after every node died).
func (d *driver) localWork(report *core.NodeReport) {
	for {
		idx, ok := d.claim(true)
		if !ok {
			return
		}
		res, err := d.f.RunSubtree(d.ctx, idx)
		if err != nil {
			if d.ctx.Err() != nil {
				d.requeue(idx)
				return
			}
			d.requeue(idx)
			d.fail(fmt.Errorf("dist: local subtree %d: %w", idx, err))
			return
		}
		report.Subtrees++
		report.Paths += res.PathCount()
		report.VirtualTime += res.VirtualTime()
		if err := d.complete(res); err != nil {
			d.fail(fmt.Errorf("dist: journal: %w", err))
			return
		}
	}
}

func finish(job campaign.Job, analysis *core.Analysis, rep *core.Report, opts Options) (*campaign.Result, error) {
	res := &campaign.Result{
		Fingerprint:     core.Fingerprint(rep),
		JobFingerprint:  job.Fingerprint(),
		Paths:           len(rep.Finished),
		Instructions:    rep.Stats.Instructions,
		SolverQueries:   rep.Solver.Queries,
		VirtualTime:     rep.VirtualTime,
		SeedVirtualTime: rep.SeedVirtualTime,
		Workers:         len(rep.Workers),
		Report:          rep,
	}
	for _, st := range rep.Bugs() {
		bug := campaign.Bug{
			Status: fmt.Sprintf("%v", st.Status),
			PC:     st.PC,
			Steps:  st.Steps,
			Model:  st.Model,
		}
		res.Bugs = append(res.Bugs, bug)
		emit(opts.Events, campaign.Event{Kind: campaign.EventBug, Bug: &bug})
	}
	if opts.ReportDir != "" && len(res.Bugs) > 0 {
		n, err := analysis.WriteCrashReports(opts.ReportDir, rep)
		if err != nil {
			return nil, err
		}
		res.CrashReports = n
	}
	emit(opts.Events, campaign.Event{
		Kind:        campaign.EventCompleted,
		Paths:       res.Paths,
		Bugs:        len(res.Bugs),
		VirtualTime: res.VirtualTime,
		Fingerprint: res.Fingerprint,
	})
	return res, nil
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
	c   net.Conn
	dec *json.Decoder
	enc *json.Encoder
}

func dialNode(addr string, dial func(string) (net.Conn, error)) (*nodeConn, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	return &nodeConn{c: c, dec: json.NewDecoder(c), enc: json.NewEncoder(c)}, nil
}

func (nc *nodeConn) roundTrip(req Request) (Response, error) {
	if err := nc.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := nc.dec.Decode(&resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// connectNode dials addr and prepares the campaign, validating that
// the node's independently computed frontier matches the driver's.
func (d *driver) connectNode(job campaign.Job, addr string, dial func(string) (net.Conn, error)) (*node, error) {
	shipped := job
	shipped.Nodes = nil
	n := &node{
		addr:   addr,
		job:    shipped,
		report: &core.NodeReport{Node: addr},
	}
	nc, err := dialNode(addr, dial)
	if err != nil {
		return nil, fmt.Errorf("dist: node %s: %w", addr, err)
	}
	defer nc.c.Close()
	if err := n.prepare(d, nc); err != nil {
		return nil, err
	}
	return n, nil
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

// work runs the node's slot loops until the queue drains or the node
// dies. Node death (connection failure that one redial cannot cure)
// requeues the in-flight subtree and retires the node; the work moves
// to surviving nodes or the driver's local fallback.
func (n *node) work(d *driver, slots int, dial func(string) (net.Conn, error)) {
	var wg sync.WaitGroup
	var once sync.Once
	dead := func() {
		once.Do(func() {
			d.mu.Lock()
			d.liveNodes--
			d.cond.Broadcast()
			d.mu.Unlock()
		})
	}
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.slotLoop(d, dial, dead)
		}()
	}
	wg.Wait()
	dead() // clean exit: the node is done, not dead, but no longer live
}

// harvestStats collects the node-side cache stats for the per-node
// report. Pure bookkeeping, run after the exploration clock stops.
func (n *node) harvestStats(d *driver, dial func(string) (net.Conn, error)) {
	nc, err := dialNode(n.addr, dial)
	if err != nil {
		return
	}
	defer nc.c.Close()
	if resp, err := nc.roundTrip(Request{Op: "stats", Token: n.token}); err == nil && resp.Status != nil {
		d.mu.Lock()
		n.report.SolverCache = resp.Status.Solver
		d.mu.Unlock()
	}
}

func (n *node) slotLoop(d *driver, dial func(string) (net.Conn, error), dead func()) {
	nc, err := dialNode(n.addr, dial)
	if err != nil {
		dead()
		return
	}
	defer func() { nc.c.Close() }()
	for {
		idx, ok := d.claim(false)
		if !ok {
			return
		}
		res, err := n.runSubtree(d, nc, idx)
		if err != nil {
			// One redial may cure a dropped connection; the subtree
			// is pure in its index, so re-running it is safe.
			nc.c.Close()
			nc2, derr := dialNode(n.addr, dial)
			if derr == nil {
				if perr := n.prepare(d, nc2); perr == nil {
					d.mu.Lock()
					n.report.Reconnects++
					d.mu.Unlock()
					nc = nc2
					res, err = n.runSubtree(d, nc, idx)
				} else {
					nc2.c.Close()
					err = perr
				}
			} else {
				err = derr
			}
			if err != nil {
				d.requeue(idx)
				dead()
				return
			}
		}
		d.mu.Lock()
		n.report.Subtrees++
		n.report.Paths += res.PathCount()
		n.report.VirtualTime += res.VirtualTime()
		d.mu.Unlock()
		if err := d.complete(res); err != nil {
			d.fail(fmt.Errorf("dist: journal: %w", err))
			return
		}
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
		res.PutBugSnapshot(ref.State, rec)
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
	if rec, ok := d.fetched[ref.Digest]; ok {
		d.mu.Unlock()
		return rec, 0, nil
	}
	d.mu.Unlock()

	var shipped uint64
	fetch := func(full bool) (*snapshot.Record, error) {
		resp, err := nc.roundTrip(Request{Op: "fetch", Token: n.token, Digest: ref.Digest, Full: full})
		if err != nil {
			return nil, err
		}
		if !resp.OK {
			return nil, fmt.Errorf("node %s: %s", n.addr, resp.Error)
		}
		shipped += uint64(len(resp.Data))
		rec, missing, err := snapshot.DecodeDelta(resp.Data, d.f.Store().PeriphByDigest)
		if err != nil {
			return nil, fmt.Errorf("node %s: fetch %s: %w", n.addr, ref.Digest, err)
		}
		if len(missing) > 0 {
			return nil, nil // caller retries full
		}
		return rec, nil
	}
	rec, err := fetch(false)
	if err != nil {
		return nil, shipped, err
	}
	if rec == nil {
		// The node's ledger said we hold a chunk we could not
		// resolve (evicted since): re-fetch with everything inline.
		rec, err = fetch(true)
		if err != nil {
			return nil, shipped, err
		}
		if rec == nil {
			return nil, shipped, fmt.Errorf("node %s: fetch %s: full frame still unresolved", n.addr, ref.Digest)
		}
	}
	// Intern the record so its chunks resolve future delta frames,
	// and pin it in the fetched cache for digest-level dedup.
	d.f.Store().Put(*rec)
	d.mu.Lock()
	d.fetched[ref.Digest] = rec
	d.mu.Unlock()
	return rec, shipped, nil
}
