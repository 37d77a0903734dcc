// The driver side of a distributed run: Fanout and the node-connection
// slots it passes to core.Frontier.Run. No work queue lives here; see
// the package comment.

package dist

import (
	"context"
	"fmt"
	"sync"

	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
)

// driver holds the per-node reports of one distributed campaign.
// Scheduling is not its business — the subtrees run under the same
// supervisor as a local parallel run (core.Frontier.Run); the driver
// only supplies the slots whose executors reach a node.
type driver struct {
	f *core.Frontier

	mu    sync.Mutex
	nodes []*node
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
		d := &driver{f: f}
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
	for _, n := range d.nodes {
		rep.Nodes = append(rep.Nodes, *n.report)
	}
	if local.Subtrees > 0 {
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
			res, err := n.runSubtree(nc, idx)
			if err == nil {
				d.count(n.report, res)
			}
			return res, err
		}, nil
	}
}

// runSubtree executes one remote subtree: the node answers with the
// subtree's encoded result, bug snapshots inline.
func (n *node) runSubtree(nc *campaign.Conn, idx int) (*core.SubtreeResult, error) {
	var resp Response
	if err := nc.RoundTrip(Request{Op: "run", Token: n.token, Subtree: idx}, &resp); err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("node %s: %s", n.addr, resp.Error)
	}
	res, err := core.DecodeSubtreeResult(resp.Result)
	if err != nil {
		return nil, fmt.Errorf("node %s: corrupt result: %w", n.addr, err)
	}
	return res, nil
}
