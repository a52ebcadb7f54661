// Package bitset implements a dense fixed-capacity bit set used to track
// data provenance (which nodes' original data have been folded into an
// aggregate) and knowledge dissemination (which nodes' futures a node has
// learned) without per-element allocations.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit set. The zero value has capacity zero; use
// New to size it.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for bits 0..n-1.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Cap returns the capacity (the n passed to New).
func (s *Set) Cap() int { return s.n }

// Words exposes the packed backing words (bit i of the set lives at
// words[i/64] bit i%64). The slice aliases the set's storage: callers may
// read or mutate it for word-parallel operations, but must not grow it.
// Bits at positions >= Cap() must stay zero.
func (s *Set) Words() []uint64 { return s.words }

// SetAll sets every bit 0..n-1, leaving the tail bits of the last word
// zero so Count and Equal stay exact.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if tail := uint(s.n % 64); tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << tail) - 1
	}
}

// Add sets bit i. Out-of-range indexes are ignored (they cannot be
// represented, and callers validate node ids upstream).
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/64] |= 1 << (uint(i) % 64)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/64] &^= 1 << (uint(i) % 64)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether all n bits are set.
func (s *Set) Full() bool { return s.Count() == s.n }

// UnionWith sets s to s ∪ t. Capacities must match; mismatches panic
// because they indicate a programming error (mixing sets from different
// node universes).
func (s *Set) UnionWith(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// IntersectsWith reports whether s ∩ t is non-empty.
func (s *Set) IntersectsWith(t *Set) bool {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Clear removes every bit, keeping the capacity and backing storage, so
// a set can be recycled across runs without reallocating.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Members returns the set bits in increasing order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	for i := 0; i < s.n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// FromWords wraps an existing word slice as a Set with capacity n,
// without copying: the Set aliases words, so mutations through either
// view are visible in both. This is the arena primitive — a contiguous
// block carved into many sets — used by core's per-instance arenas. The
// slice length must be exactly WordsFor(n); mismatches panic because
// they indicate a mis-carved arena.
func FromWords(n int, words []uint64) *Set {
	if n < 0 {
		n = 0
	}
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitset: FromWords(%d) needs %d words, got %d", n, WordsFor(n), len(words)))
	}
	return &Set{n: n, words: words}
}

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + 63) / 64
}

// TestWord reports whether bit i is set in a raw word slice laid out like
// Set's backing storage. No bounds checks beyond the slice's own: callers
// own validation.
func TestWord(words []uint64, i int) bool {
	return words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetWordBit sets bit i in a raw word slice.
func SetWordBit(words []uint64, i int) {
	words[i>>6] |= 1 << (uint(i) & 63)
}

// ClearWordBit clears bit i in a raw word slice.
func ClearWordBit(words []uint64, i int) {
	words[i>>6] &^= 1 << (uint(i) & 63)
}

// CountWords returns the number of set bits across a raw word slice.
func CountWords(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// String renders the set as {a,b,c}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", m)
	}
	b.WriteByte('}')
	return b.String()
}
