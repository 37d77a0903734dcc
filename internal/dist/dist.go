// Package dist is distributed exploration: Fanout is the
// campaign.RunOptions.Fanout that sends the fan-out subtrees of one
// campaign to N remote nodes, each an independent process that builds
// its own rigs (core.Setup, as a local run does), and Server is such a
// node. campaign.Runner
// does everything else a run does — setup, seed phase, events, result
// — exactly as for a local run. A node answers a subtree with its
// core.SubtreeResult encoded as the campaign journal stores it, bug
// snapshots inline, so a subtree result has one byte form whichever
// executor ran it.
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
// Scheduling: there is none of its own. Fanout hands core.Frontier.Run —
// the supervisor of every parallel run — one slot per node connection
// and the driver's local rigs as the fallback; queueing, requeue and
// replacement after a node death, journaling, resume and interruption
// are that supervisor's (see core/parallel.go). This package supplies
// what is particular to a node: the connection and the per-node
// accounting (driver.go), and the node side (node.go).
//
// Determinism: subtree results merge with the same
// deterministic seed-order schedule (width core.Config.Workers, NOT
// the node count) a single-machine run uses, so an N-node run's
// bugs, paths and virtual time are byte-identical to a 1-node run's.
// Each node keeps its own solver cache; that cannot perturb the merge
// either, because verdicts are pure functions of the canonical
// path-condition digest and solver-query budgets count cache hits as
// queries, so which verdicts a node has cached changes only
// wall-clock effort, never outcomes.
//
// The wire protocol is line-delimited JSON over TCP, one Request per
// Response, on the connection layer internal/farm uses too
// (campaign.Conn and campaign.ConnServer). campaign.MaxMessage bounds
// one message, and so one subtree's result with its bug records.
package dist

import (
	"hardsnap/internal/campaign"
	"hardsnap/internal/core"
)

// Request is one driver → node message.
type Request struct {
	// Op selects the operation: prepare | run | release.
	Op string `json:"op"`
	// Token names a prepared campaign (all ops but prepare).
	Token string `json:"token,omitempty"`
	// Job is the campaign spec (prepare).
	Job *campaign.Job `json:"job,omitempty"`
	// Frontier is the driver's frontier identity (prepare). The node
	// refuses the campaign unless its own seed phase reproduces it
	// exactly — the proof that a bare subtree index is a complete
	// work description.
	Frontier *core.FrontierID `json:"frontier,omitempty"`
	// Subtree is the seed index to run (run).
	Subtree int `json:"subtree"`
}

// Response is one node → driver message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Token echoes (prepare) the campaign token.
	Token string `json:"token,omitempty"`
	// Frontier is the node's own seed-phase outcome (prepare).
	Frontier *core.FrontierID `json:"frontier,omitempty"`
	// Result is the subtree's core.SubtreeResult.Encode bytes (run),
	// bug snapshots inline.
	Result []byte `json:"result,omitempty"`
}
