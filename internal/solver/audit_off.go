//go:build !hardsnapaudit

package solver

// auditBuild is off: keyed queries trust their key, cache hits trust
// their model and the SAT core trusts its Sat answers (build with -tags
// hardsnapaudit to turn the checks on).
const auditBuild = false
