//go:build hardsnapaudit

package target

// scanAudit makes every copied scan save and restore re-run as the
// netlist shift on a shadow simulator (see Target.audit).
const scanAudit = true
