package adversary

// Uniform is the randomized adversary as a generated workload that can
// also skip, at the source, the interactions no algorithm acts on. It is
// Generated over seq.UniformGen, whose Next and NextBatch it plays, plus
// NextOwned, which draws from the same source: it keeps, in an
// rng.PairSet, the pairs whose two members still own data, and draws
// through rng.PairTable.DrawIn until one of them comes up. Those are the
// draws Source.Pair makes, with one bit test per idle interaction in
// place of a pair lookup, a batch slot and the engine's ownership check.

import (
	"errors"
	"math/bits"

	"doda/internal/bitset"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// Uniform draws every interaction uniformly over the n(n-1)/2 pairs from
// one source, with no sequence caching.
type Uniform struct {
	*Generated
	src   *rng.Source
	pairs *rng.PairTable

	// set holds the pairs of the nodes in held, the owners NextOwned last
	// screened against. Both are built on the first NextOwned call, and
	// never above the pair-table bound, where set is nil.
	set  *rng.PairSet
	held []uint64
}

var _ core.ScreenedAdversary = (*Uniform)(nil)

// NewUniform returns the randomized adversary on n nodes drawing from
// src, under the given display name.
func NewUniform(name string, n int, src *rng.Source) (*Uniform, error) {
	if src == nil {
		return nil, errors.New("adversary: nil source")
	}
	if name == "" {
		name = "uniform"
	}
	g, err := NewGenerated(name, n, seq.UniformGen(n, src))
	if err != nil {
		return nil, err
	}
	return &Uniform{Generated: g, src: src, pairs: rng.PairTableFor(n)}, nil
}

// NextOwned implements core.ScreenedAdversary. It first brings its pair
// set up to owners: every node that lost its data since the last call
// is dropped, and a node that owns data again (the adversary is reused
// for a new run) rebuilds the set. Above the pair-table bound there is
// no set, and it draws pair by pair, testing both owner bits.
func (u *Uniform) NextOwned(t, span int, owners []uint64) (seq.Interaction, int, bool) {
	if u.screen(owners) {
		a, b, skipped, ok := u.pairs.DrawIn(u.src, u.set, span)
		if !ok {
			return seq.Interaction{}, 0, false
		}
		return seq.Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}, t + skipped, true
	}
	for i := 0; i < span; i++ {
		a, b := u.pairs.Pair(u.src)
		if bitset.TestWord(owners, a) && bitset.TestWord(owners, b) {
			return seq.Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}, t + i, true
		}
	}
	return seq.Interaction{}, 0, false
}

// screen makes set hold exactly the pairs of two nodes in owners, or
// reports false where n has no pair set.
func (u *Uniform) screen(owners []uint64) bool {
	if u.set == nil {
		if u.set = rng.NewPairSet(u.n); u.set == nil {
			return false
		}
		u.held = make([]uint64, bitset.WordsFor(u.n))
		u.fill()
	}
	rebuilt := false
	for w := 0; w < len(u.held); w++ {
		h, o := u.held[w], owners[w]
		if h == o {
			continue
		}
		if o&^h != 0 && !rebuilt {
			// A node owns data again: start over from every pair.
			u.set.Fill()
			u.fill()
			rebuilt, w = true, -1
			continue
		}
		for gone := h &^ o; gone != 0; gone &= gone - 1 {
			u.set.Drop(w<<6 + bits.TrailingZeros64(gone))
		}
		u.held[w] = h & o
	}
	return true
}

// fill marks every node held, as a full set has them.
func (u *Uniform) fill() {
	for w := range u.held {
		u.held[w] = ^uint64(0)
	}
	if tail := uint(u.n % 64); tail != 0 {
		u.held[len(u.held)-1] = 1<<tail - 1
	}
}
