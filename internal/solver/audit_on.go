//go:build hardsnapaudit

package solver

// auditBuild makes every keyed query recompute its batch key, every
// cache hit re-check the digest of the model it returns (see
// Solver.check and Cache.Lookup), and every Sat answer of the SAT core
// check that it is a model (sat.auditModel).
const auditBuild = true
