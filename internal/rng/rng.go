// Package rng provides a small, fast, deterministic pseudo-random number
// generator substrate for the doda simulators and experiment harness.
//
// The generator is xoshiro256**, seeded through splitmix64. Unlike
// math/rand, the exact output stream of this package is part of its
// contract: experiments seeded with the same value reproduce bit-for-bit
// across runs, platforms and Go releases, which the experiment harness
// relies on to make every table in EXPERIMENTS.md regenerable.
//
// Sources are NOT safe for concurrent use; create one Source per goroutine
// (Split derives independent streams deterministically).
//
// Uniform pair draws have two paths with one output. Source.Pair inverts
// its draw with PairAt, a float square root corrected by integer steps.
// A PairTable, built once per n by PairTableFor and shared, answers the
// same inversion from one word per bucket of consecutive pair indices:
// the bucket's first row and the index that row starts at, from which
// the next row's start follows. Within a bucket that meets at most those
// two rows, one compare picks the row and the pair follows by integer
// arithmetic, so the table is exact by construction; PairAt answers the
// rare bucket that meets three rows, and every n above the table bound.
// Both paths make the same single bounded draw, so a stream drawn
// through a table is Pair's stream bit for bit, and the source ends in
// the same state.
//
// A PairSet is a bitmap over the pair indices of one n up to the table
// bound, in the order PairAt inverts; Drop(u) removes u's pairs, its
// row as one run of indices and its column as one bit per earlier row.
// PairTable.DrawIn draws indices as Pair does until one is in a set:
// it is Uint64 and the bounded draw written out over a state held in
// locals, rejection redraws included, so it makes exactly Pair's draws,
// and it stops at the first member, so the source ends where that many
// Pair calls leave it. Only the member drawn is mapped to its pair; the
// randomized adversary keeps its owners' pairs in a set, so an idle
// interaction costs a generator step, a multiply and a bit test.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random number generator.
//
// The zero value is not usable; construct Sources with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// ErrEmptyRange reports an invalid request such as Intn(0).
var ErrEmptyRange = errors.New("rng: empty range")

// New returns a Source seeded from seed via splitmix64, so that nearby
// seeds still yield well-distributed, independent-looking streams.
func New(seed uint64) *Source {
	var sm = seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s := &Source{s0: next(), s1: next(), s2: next(), s3: next()}
	// A pathological all-zero state would make xoshiro emit only zeros.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return s
}

// Split derives a new Source from the current one. The derived stream is
// deterministic given the parent's state, and advances the parent, so
// successive Splits yield distinct streams.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9

	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)

	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; callers in this repository always pass validated sizes.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic(ErrEmptyRange)
	}
	return int(s.boundedUint64(uint64(n)))
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits give the full double-precision mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// boundedUint64 returns a uniform value in [0, n) using Lemire's
// multiply-shift rejection method (unbiased).
func (s *Source) boundedUint64(n uint64) uint64 {
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Perm returns a uniform random permutation of [0, n) as a fresh slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes xs uniformly in place (Fisher–Yates).
func Shuffle[T any](s *Source, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Pair returns a uniformly chosen unordered pair {a,b} of distinct
// integers in [0, n), returned with a < b. It panics if n < 2.
//
// This is the randomized adversary's elementary step: every interaction is
// a uniform draw over the n(n-1)/2 unordered node pairs.
func (s *Source) Pair(n int) (a, b int) {
	if n < 2 {
		panic(ErrEmptyRange)
	}
	total := uint64(n) * uint64(n-1) / 2
	return PairAt(n, s.boundedUint64(total))
}

// PairAt returns the k-th unordered pair {a, b}, a < b, of [0, n) in
// lexicographic order ({0,1}, {0,2}, ..., {n-2,n-1}), for k below
// n(n-1)/2, inverting the index in O(1). Counting pairs from the END of
// the order, the reversed rows have lengths 1, 2, ..., n-1, so the
// reversed row index is the triangular root of j = total-1-k. The float
// estimate is corrected by an exact integer walk of at most a step or
// two, so every k maps to the same (a, b) as a linear row scan — Pair's
// deterministic output stream is that of the old O(n) scan, bit for
// bit — while the draw stops costing O(n) at large n (the scan
// dominated whole-run profiles beyond n ≈ 10³).
func PairAt(n int, k uint64) (a, b int) {
	j := uint64(n)*uint64(n-1)/2 - 1 - k
	i := uint64((math.Sqrt(float64(8*j+1)) - 1) / 2)
	for i*(i+1)/2 > j {
		i--
	}
	for (i+1)*(i+2)/2 <= j {
		i++
	}
	a = n - 2 - int(i)
	off := j - i*(i+1)/2 // position within the reversed row, in [0, i]
	b = a + 1 + int(i-off)
	return a, b
}

// State returns the current internal state, for checkpointing a stream.
func (s *Source) State() [4]uint64 {
	return [4]uint64{s.s0, s.s1, s.s2, s.s3}
}

// Restore sets the internal state previously captured with State.
func (s *Source) Restore(state [4]uint64) {
	s.s0, s.s1, s.s2, s.s3 = state[0], state[1], state[2], state[3]
}
