// Package testseed gives the repo's property tests a fixed random
// source. testing/quick seeds itself from the clock when left alone,
// which makes a tier-1 failure depend on when the suite ran; every
// quick.Check in the repo takes its Config from here instead, so a run
// draws the same cases every time. Randomised search belongs to the
// native Fuzz* targets. Netlist is the seeded random Verilog generator
// the RTL engine tests share, and Allocated is how the decoder tests
// measure what one call allocates.
package testseed

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Seed is the source every property test starts from.
const Seed = 1

// Quick returns a quick.Config drawing maxCount cases (0 = quick's
// default) from Seed, and logs the seed so a failure names it.
func Quick(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("testing/quick seeded with %d", Seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(Seed))}
}
