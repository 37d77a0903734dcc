//go:build !hardsnapaudit

package snapshot

// nameAudit is off: states the store names by lookup are not re-hashed
// (build with -tags hardsnapaudit to turn it on).
const nameAudit = false
