package tensor

import "math"

// RNG is a small, fast, reproducible pseudo-random generator
// (xorshift64* with a splitmix64-seeded state). Every stochastic component
// in the repository draws from an explicitly seeded RNG so experiments are
// bit-for-bit reproducible.
type RNG struct {
	state uint64
	// spare Gaussian value from the Box–Muller pair.
	hasSpare bool
	spare    float64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped to a
// fixed nonzero constant because xorshift state must be nonzero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed via splitmix64.
func (r *RNG) Seed(seed uint64) {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	r.state = z
	r.hasSpare = false
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal value via Box–Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(make([]int, n))
}

// PermInto fills p with a pseudo-random permutation of [0,len(p)) and
// returns it — the allocation-free form of Perm for hot loops that reuse
// the slice. It consumes exactly the same RNG draws as Perm, so a run is
// reproducible regardless of which form it uses.
func (r *RNG) PermInto(p []int) []int {
	n := len(p)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives a new, independent generator from this one. Use it to give
// each component its own stream without correlated draws.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// RNGState is a serializable snapshot of an RNG's position in its
// stream, including the buffered Box–Muller spare, so checkpoint/resume
// reproduces Gaussian draws bit for bit.
type RNGState struct {
	State     uint64 `json:"state"`
	HasSpare  bool   `json:"has_spare,omitempty"`
	SpareBits uint64 `json:"spare_bits,omitempty"`
}

// State captures the generator's current state.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, HasSpare: r.hasSpare, SpareBits: math.Float64bits(r.spare)}
}

// SetState rewinds the generator to a captured state: the next draws
// are bitwise identical to the draws that followed the capture.
func (r *RNG) SetState(s RNGState) {
	r.state = s.State
	r.hasSpare = s.HasSpare
	r.spare = math.Float64frombits(s.SpareBits)
	if r.state == 0 {
		// xorshift state must be nonzero; a zero snapshot is corrupt, so
		// fall back to the seed-0 remap constant.
		r.state = 0x853c49e6748fea9b
	}
}

// RandN fills a new tensor of the given shape with N(0,1) draws.
func RandN(r *RNG, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat64()
	}
	return t
}

// RandUniform fills a new tensor of the given shape with U[lo,hi) draws.
func RandUniform(r *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*r.Float64()
	}
	return t
}
