package target

import "fmt"

// Transfer moves the complete hardware state from one target to the
// other (paper E7): a Save at the source's snapshot cost followed by
// a Restore at the destination's. Both targets must host the same
// peripheral set.
func Transfer(from, to *Target) error {
	st, err := from.Save()
	if err != nil {
		return fmt.Errorf("target: transfer save from %s: %w", from.name, err)
	}
	if err := to.Restore(st); err != nil {
		return fmt.Errorf("target: transfer restore to %s: %w", to.name, err)
	}
	return nil
}
