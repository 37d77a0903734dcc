// Package dist is the distributed exploration driver: it fans the
// fan-out subtrees of one campaign out to N remote nodes, each an
// independent process with its own pre-warmed targets, over two
// shared fabrics — a farm-wide snapshot cache (content digests cross
// the wire, state bytes only when a digest is unknown) and a
// farm-wide memoized solver cache (verdicts discovered anywhere are
// relayed everywhere).
//
// The design rests on the frontier purity property (see
// core/frontier.go): the serial seed phase is a deterministic, cheap
// function of the job, and every subtree result is a pure function of
// its seed index. A node therefore receives the *job*, re-runs the
// seed phase itself, and proves via core.FrontierID — which includes
// the sha256 digests of the seed hardware snapshots — that it holds a
// byte-identical frontier. From then on a subtree handoff is a bare
// index: zero symbolic state and zero snapshot bytes on the wire.
//
// Scheduling: there is none of its own. Run hands core.Frontier.Run —
// the supervisor of every parallel run — one slot per node connection
// and the driver's local rigs as the fallback; queueing, requeue and
// replacement after a node death, journaling, resume and interruption
// are that supervisor's (see core/parallel.go). This package supplies
// what is particular to a node: the connection, the two fabrics and
// the per-node accounting (driver.go), and the node side (node.go).
//
// Determinism: subtree results merge with the same
// deterministic seed-order schedule (width core.Config.Workers, NOT
// the node count) a single-machine run uses, so an N-node run's
// bugs, paths and virtual time are byte-identical to a 1-node run's.
// The solver fabric cannot perturb that: verdicts and models are pure
// functions of the canonical path-condition digest, and solver-query
// budgets count cache hits as queries, so relaying entries changes
// only wall-clock effort, never outcomes.
//
// The wire protocol is line-delimited JSON over TCP, one Request per
// Response, same idiom as internal/farm.
package dist

import (
	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/solver"
)

// Request is one driver → node message.
type Request struct {
	// Op selects the operation: prepare | run | fetch | stats |
	// release.
	Op string `json:"op"`
	// Token names a prepared campaign (all ops but prepare).
	Token string `json:"token,omitempty"`
	// Job is the campaign spec (prepare). The driver clears
	// Job.Nodes first: a node must not recursively fan out.
	Job *campaign.Job `json:"job,omitempty"`
	// Frontier is the driver's frontier identity (prepare). The node
	// refuses the campaign unless its own seed phase reproduces it
	// exactly — the proof that a bare subtree index is a complete
	// work description.
	Frontier *core.FrontierID `json:"frontier,omitempty"`
	// Subtree is the seed index to run (run).
	Subtree int `json:"subtree"`
	// Solver carries the fabric delta the node imports before
	// running (run): entries other nodes discovered since this node
	// last heard from the driver.
	Solver []solver.WireEntry `json:"solver,omitempty"`
	// Digest names a bug snapshot record to fetch, hex (fetch).
	Digest string `json:"digest,omitempty"`
	// Full forces every peripheral chunk inline (fetch): the driver's
	// fallback when it failed to resolve a delta frame because its
	// own store evicted a chunk the node believed it held.
	Full bool `json:"full,omitempty"`
}

// BugRef names one detached bug snapshot in a run response: the
// record travels as a digest, not as state bytes.
type BugRef struct {
	// State is the buggy symbolic state's ID (the bug-snapshot map
	// key the driver re-attaches under).
	State uint64 `json:"state"`
	// Digest is the record's content address, hex.
	Digest string `json:"digest"`
	// Bytes is the size of the record encoded with nothing omitted —
	// what shipping it inline would have cost (the savings baseline).
	Bytes uint64 `json:"bytes"`
}

// NodeStatus is a node's introspection snapshot (stats op).
type NodeStatus struct {
	// Campaigns is the number of prepared campaigns resident.
	Campaigns int `json:"campaigns"`
	// Solver is the campaign's node-side solver cache (Imported =
	// fabric entries adopted, Published = local discoveries offered).
	Solver solver.CacheStats `json:"solver"`
	// Store is the campaign engine's snapshot store, including the
	// retention tier counters.
	Store snapshot.Stats `json:"store"`
}

// Response is one node → driver message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Token echoes (prepare) the campaign token.
	Token string `json:"token,omitempty"`
	// Frontier is the node's own seed-phase outcome (prepare).
	Frontier *core.FrontierID `json:"frontier,omitempty"`
	// Result is the encoded core.SubtreeResult (run). Its bug
	// snapshots are detached and listed in Bugs instead.
	Result []byte `json:"result,omitempty"`
	// Bugs lists the detached bug snapshots (run); the driver fetches
	// each unique digest once.
	Bugs []BugRef `json:"bugs,omitempty"`
	// Solver carries verdicts this node discovered since its last
	// response, for the driver to relay (run).
	Solver []solver.WireEntry `json:"solver,omitempty"`
	// Data is a snapshot delta frame (fetch): chunks the node already
	// shipped this driver are referenced by digest only.
	Data []byte `json:"data,omitempty"`
	// Status answers the stats op.
	Status *NodeStatus `json:"status,omitempty"`
}
