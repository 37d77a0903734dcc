//go:build !hardsnapaudit

package solver

// cacheAudit is off: keyed queries trust their key and cache hits
// trust their model (build with -tags hardsnapaudit to turn it on).
const cacheAudit = false
