//go:build hardsnapaudit

package solver

// cacheAudit makes every keyed query recompute its batch key and every
// cache hit re-check the digest of the model it returns (see
// Solver.check and Cache.Lookup).
const cacheAudit = true
