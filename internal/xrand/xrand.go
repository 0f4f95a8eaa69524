// Package xrand centralizes deterministic, seedable randomness so that every
// generator, test, and benchmark in the repository is reproducible.
package xrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource adapts math/rand/v2's PCG generator to the math/rand Source64
// interface. Seeding a PCG is O(1), unlike the legacy rngSource whose Seed
// runs a 607-word warmup — measurable when experiment drivers derive one
// RNG per grid point.
type pcgSource struct{ pcg *randv2.PCG }

func (s pcgSource) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }
func (s pcgSource) Uint64() uint64  { return s.pcg.Uint64() }
func (s pcgSource) Seed(seed int64) { s.pcg.Seed(uint64(seed), 0xda3e39cb94b95bdb) }

// New returns a deterministic *rand.Rand for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(pcgSource{pcg: randv2.NewPCG(uint64(seed), 0xda3e39cb94b95bdb)})
}
