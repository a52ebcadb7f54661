package rng

import "math/bits"

// Pair sets. A PairSet is a bitmap over the pair indices of one n, in
// the lexicographic order PairAt inverts, so a pair is a member iff bit
// k of the map is set, with k the index Source.Pair draws for it. The
// randomized adversary keeps the pairs whose two members still own data
// in one: every node that loses its data drops from the set, and
// PairTable.DrawIn then draws indices until one is a member, making the
// draws Source.Pair would make and testing one bit per draw instead of
// mapping each index to its pair.

// PairSet is a set of unordered pairs of [0, n), n ≤ 1024, indexed as
// PairAt orders them. It is not safe for concurrent use.
type PairSet struct {
	n     int
	words []uint64
}

// NewPairSet returns the set of every pair of [0, n), or nil when n is
// below 2 or above the table bound, where no set exists. It is
// n(n-1)/16 bytes: 16 KiB at n = 512, 64 KiB at n = 1024.
func NewPairSet(n int) *PairSet {
	if n < 2 || n > pairTableMaxN {
		return nil
	}
	total := n * (n - 1) / 2
	s := &PairSet{n: n, words: make([]uint64, (total+63)/64)}
	s.Fill()
	return s
}

// Fill puts every pair back in the set.
func (s *PairSet) Fill() {
	total := s.n * (s.n - 1) / 2
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(total % 64); tail != 0 {
		s.words[len(s.words)-1] = 1<<tail - 1
	}
}

// Drop removes every pair with member u. Row u, the pairs (u, v) with
// v > u, is one run of indices, cleared word by word; column u, the
// pairs (a, u) with a < u, is one index per row above it.
func (s *PairSet) Drop(u int) {
	n := s.n
	start := u*(n-1) - u*(u-1)/2 // S(u), where row u starts
	s.clearRange(start, start+n-1-u)
	// Pair (a, u) is at S(a) + u-a-1, and S(a+1) = S(a) + n-1-a, so
	// successive rows' members of column u lie n-2-a apart.
	k := u - 1
	for a := 0; a < u; a++ {
		s.words[k>>6] &^= 1 << (uint(k) & 63)
		k += n - 2 - a
	}
}

// clearRange clears the bits of indices [lo, hi).
func (s *PairSet) clearRange(lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		s.words[first] &^= loMask & hiMask
		return
	}
	s.words[first] &^= loMask
	clear(s.words[first+1 : last])
	s.words[last] &^= hiMask
}

// DrawIn draws pair indices of n exactly as Pair does, one bounded draw
// each with the same rejection redraws, until one is in set or span
// indices have been drawn. It returns the pair of the first member
// drawn and how many non-members were drawn before it; ok is false when
// all span draws missed the set. It never draws past the member it
// returns, so s ends where span calls of Pair would leave it, or as
// many as DrawIn consumed. set must be a PairSet of the table's n.
//
// The generator's state lives in locals for the loop, and the draw is
// Source.Uint64 and boundedUint64 written out, so the stream is theirs
// bit for bit; a miss costs one generator step, one multiply and one
// bit test.
func (p *PairTable) DrawIn(s *Source, set *PairSet, span int) (a, b, skipped int, ok bool) {
	if set == nil || set.n != p.n {
		panic("rng: DrawIn needs a PairSet of the table's n")
	}
	total, words := p.total, set.words
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := 0; i < span; i++ {
		var r uint64
		r, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		hi, lo := bits.Mul64(r, total)
		if lo < total {
			threshold := -total % total
			for lo < threshold {
				r, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo = bits.Mul64(r, total)
			}
		}
		if words[hi>>6]&(1<<(hi&63)) != 0 {
			s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
			if a, b, ok := p.lookup(hi); ok {
				return a, b, i, true
			}
			a, b := PairAt(p.n, hi)
			return a, b, i, true
		}
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
	return 0, 0, span, false
}

// xoshiro is one step of Source.Uint64 on a state held in locals: it
// returns the output and the next state.
func xoshiro(s0, s1, s2, s3 uint64) (r, n0, n1, n2, n3 uint64) {
	r = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return r, s0, s1, s2, s3
}
