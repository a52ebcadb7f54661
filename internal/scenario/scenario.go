package scenario

import (
	"fmt"
	"slices"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/seq"
)

// Model is a seedable dynamic-graph workload generator. Implementations
// carry validated parameters; all randomness flows through the rng.Source
// handed to Generator, so one Model value can deterministically spawn any
// number of independent sequences.
type Model interface {
	// Name identifies the model (used as the adversary name in results).
	Name() string
	// N returns the number of nodes in the generated workloads.
	N() int
	// Generator returns a fresh interaction generator drawing all its
	// randomness from src. Generators are stateful and single-stream:
	// they must be called with t = 0, 1, 2, ... as seq.Stream does.
	Generator(src *rng.Source) func(t int) seq.Interaction
}

// Screener is implemented by a Model that can play its sequence as a
// core.ScreenedAdversary: one that draws exactly what Generator(src)
// would, and finds the next interaction between two data owners itself
// when the engine asks for one.
type Screener interface {
	Model
	// ScreenedAdversary returns an adversary drawing all its randomness
	// from src, as Generator(src) does.
	ScreenedAdversary(src *rng.Source) (core.ScreenedAdversary, error)
}

// Stream wraps a model into a lazily materialised unbounded sequence
// seeded with seed.
func Stream(m Model, seed uint64) (*seq.Stream, error) {
	if m == nil {
		return nil, fmt.Errorf("scenario: nil model")
	}
	return seq.NewStream(m.N(), m.Generator(rng.New(seed)))
}

// Adversary wraps a model into an oblivious adversary plus the stream
// backing it (hand the stream to knowledge oracles so that adversary and
// oracles agree on the sequence).
func Adversary(m Model, seed uint64) (core.Adversary, *seq.Stream, error) {
	st, err := Stream(m, seed)
	if err != nil {
		return nil, nil, err
	}
	adv, err := adversary.NewOblivious(m.Name(), st)
	if err != nil {
		return nil, nil, err
	}
	return adv, st, nil
}

// bernoulliIndices appends to out the indices i in [0, m) of an i.i.d.
// Bernoulli(p) trial sequence that came up true, using geometric skipping:
// expected cost O(1 + m·p) draws instead of m, which keeps per-tick edge
// and availability updates cheap when flip probabilities are small. The
// skips come from p's shared geomSkip table; generators that flip every
// tick look the table up once and call its indices method instead.
func bernoulliIndices(src *rng.Source, m int, p float64, out []int) []int {
	return geomSkipFor(p).indices(src, m, out)
}

// moveFlipped swap-deletes from `from` the entries at idx, strictly
// increasing indices into from as it was when the call began, appending
// each to `to` in idx order, and returns both slices and moved, its
// scratch. Each removal fills its hole with from's current last entry,
// so the slices end exactly as deleting the same entries one by one
// would leave them, without an index from entry to position: removals
// only shorten from, so an entry whose start index is below the current
// length has not moved, and one at or above it was carried out of the
// tail into the hole moved records for that tail position. With
// increasing indices no entry still to be removed is carried twice (see
// "Live and dead sets" in doc.go).
func moveFlipped[E any](from, to []E, idx []int, moved []int) ([]E, []E, []int) {
	top, at := len(from)-1, len(to)
	to = slices.Grow(to, len(idx))[:at+len(idx)]
	moved = slices.Grow(moved[:0], len(idx))[:len(idx)]
	for k, p := range idx {
		// Before removal k, from holds top+1-k entries.
		if p > top-k {
			p = moved[top-p]
		}
		to[at+k] = from[p]
		from[p] = from[top-k]
		moved[k] = p
	}
	return from[:top+1-len(idx)], to, moved
}
