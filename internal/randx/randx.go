// Package randx provides deterministic, splittable pseudo-random number
// generation and small statistical helpers used throughout the repro
// workloads.
//
// Every experiment in this repository must be reproducible bit-for-bit, so
// nothing in the library ever consults the wall clock or the global
// math/rand source. Instead each component derives its own generator from a
// seed via Split, which hashes a label into an independent stream. Two runs
// with the same top-level seed therefore produce identical catalogs, crowds,
// and samples regardless of goroutine scheduling.
package randx

import (
	"hash/fnv"
	"math"
	"sort"
)

// Rand is a small, fast 64-bit PRNG (xorshift* family, splitmix64 seeded).
// It intentionally mirrors the subset of math/rand's API the repository
// needs, while adding Split for derived deterministic streams.
type Rand struct {
	state uint64
}

// New returns a generator seeded from seed. A zero seed is remapped so the
// xorshift state never becomes the absorbing zero state.
func New(seed uint64) *Rand {
	r := &Rand{state: splitmix(seed)}
	if r.state == 0 {
		r.state = 0x9E3779B97F4A7C15
	}
	return r
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Split derives an independent generator identified by label. Splitting is
// stable: the same receiver seed and label always produce the same stream,
// and streams for distinct labels are statistically independent.
func (r *Rand) Split(label string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(splitmix(r.state) ^ h.Sum64())
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal variate (Box-Muller transform).
func (r *Rand) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap callback.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// PickString returns a uniformly chosen element of s. It panics on an empty
// slice, which always indicates a workload-construction bug.
func (r *Rand) PickString(s []string) string {
	if len(s) == 0 {
		panic("randx: PickString on empty slice")
	}
	return s[r.Intn(len(s))]
}

// Sample returns k distinct indices drawn uniformly from [0, n) using
// reservoir sampling. If k >= n it returns all n indices. The result is
// sorted for deterministic downstream iteration.
func (r *Rand) Sample(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	sort.Ints(res)
	return res
}

// WeightedIndex draws an index proportionally to weights. Non-positive
// weights are treated as zero. If the total mass is zero it falls back to a
// uniform draw.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	target := r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s.
// It is used to model head/tail product-type popularity: a handful of types
// receive most items while a long tail receives only a few ("tail rules"
// in the paper's terminology touch only those).
type Zipf struct {
	r   *Rand
	cdf []float64
}

// NewZipf precomputes the CDF for n outcomes with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return &Zipf{r: r, cdf: cdf}
}

// Next draws the next Zipf-distributed value.
func (z *Zipf) Next() int { return z.NextWith(z.r) }

// NextWith draws a Zipf-distributed value using uniform bits from r instead
// of the generator bound at construction. This lets many independent streams
// share one precomputed CDF.
func (z *Zipf) NextWith(r *Rand) int {
	u := r.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Mass returns the probability of outcome k.
func (z *Zipf) Mass(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}
