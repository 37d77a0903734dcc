//go:build hardsnapaudit

package snapshot

// nameAudit makes every state the store names by lookup re-hashed, and
// a lookup that named it otherwise than HWDigest panic.
const nameAudit = true
