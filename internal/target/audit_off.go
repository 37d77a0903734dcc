//go:build !hardsnapaudit

package target

// scanAudit is off: copied scan saves and restores are not re-run as
// the netlist shift (build with -tags hardsnapaudit to turn it on).
const scanAudit = false
