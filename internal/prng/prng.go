// Package prng is the simulator's one seeded pseudo-random generator. Task
// inputs (internal/workloads), arrival streams (internal/serve) and fleet
// routing probes (internal/cluster) all draw from it, so a seed names the
// same sequence on every Go version and every run (the randsource rule,
// DESIGN.md §5).
package prng

// Xorshift is a 64-bit xorshift generator (shifts 13, 7, 17). The state is
// the value itself; a zero state stays zero, so New never returns one.
type Xorshift uint64

// New returns a generator seeded from seed.
func New(seed int64) *Xorshift {
	x := Xorshift(uint64(seed)*2685821657736338717 + 0x9E3779B97F4A7C15)
	if x == 0 {
		x = 0x2545F4914F6CDD1D
	}
	return &x
}

// Next advances the generator and returns its new state.
func (x *Xorshift) Next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = Xorshift(v)
	return v
}

// Intn returns a draw from [0, n). n must be positive.
func (x *Xorshift) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn on a non-positive bound")
	}
	return int(x.Next() % uint64(n))
}

// Float01 returns a draw from [0, 1) with 53 bits of precision.
func (x *Xorshift) Float01() float64 { return float64(x.Next()>>11) / (1 << 53) }
