// Package splitmix holds the one seeded mixing function every
// deterministic fault and workload generator in the repository draws
// from, so a schedule depends only on its seed and never on shared state.
package splitmix

// Mix is the finaliser of the SplitMix64 generator: a bijective avalanche
// mix, so hashing (seed, k) pairs through it yields independent-looking
// uniform draws without shared state. Mix(0) is the generator's first
// output from seed 0.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
