package testseed

import "runtime"

// allocRuns is how many times Allocated runs its function.
const allocRuns = 3

// Allocated reports the bytes f allocates: the smallest TotalAlloc
// delta over a few runs of f. A single reading also counts whatever
// the runtime and other goroutines allocate meanwhile (a fuzz worker's
// bookkeeping, a GC cycle's own buffers), which made allocation bounds
// flake; a deterministic f allocates the same each run, so the minimum
// is its own. f's results are those of its last run.
func Allocated(f func()) uint64 {
	var least uint64
	for i := range allocRuns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; i == 0 || grew < least {
			least = grew
		}
	}
	return least
}
