// Package knowledge implements the paper's knowledge model (§2.1): a
// knowledge is a function or attribute given to every node providing
// information about the future, the topology, or anything else. By
// default a node knows only its identifier and whether it is the sink;
// the classes DODA(i1, i2, ...) of the paper correspond to Bundles
// carrying the respective oracles.
//
// Supported oracles:
//
//   - meetTime:  u.meetTime(t) = smallest t' > t with I_t' = {u, s}
//     (identity for the sink itself) — used by Waiting Greedy, which
//     asks only whether a meeting comes by τ (MeetTimeWithin) and, when
//     neither endpoint's does, which comes first (SoonerToMeet). The
//     oracle scans a View (WithMeetTime) or, caching nothing, a second
//     generator instance of the sequence the adversary plays
//     (WithMeetTimeGen).
//   - future:    u.future = the sequence of interactions involving u,
//     with their occurrence times — used by the Theorem 6 algorithm.
//   - underlying graph Ḡ — used by the spanning-tree algorithm (§3.2).
//   - full sequence — the DODA(full knowledge) class of Theorem 8.
package knowledge

import (
	"errors"
	"fmt"

	"doda/internal/graph"
	"doda/internal/seq"
)

// ErrNotGranted reports use of an oracle the bundle does not carry.
var ErrNotGranted = errors.New("knowledge: oracle not granted")

// Bundle is the set of knowledge oracles granted to the nodes of one
// execution. The zero Bundle grants nothing beyond the default
// (identifier + isSink), which is the paper's "no knowledge" setting.
type Bundle struct {
	meet       *seq.MeetTimes
	futures    [][]seq.TimedStep
	underlying *graph.Undirected
	full       seq.View
}

// Option grants one oracle to a Bundle.
type Option interface {
	apply(b *Bundle) error
}

type optionFunc func(b *Bundle) error

func (f optionFunc) apply(b *Bundle) error { return f(b) }

// WithMeetTime grants the meetTime oracle computed over view with the
// given look-ahead horizon.
func WithMeetTime(view seq.View, sink graph.NodeID, horizon int) Option {
	return optionFunc(func(b *Bundle) error {
		mt, err := seq.NewMeetTimes(view, sink, horizon)
		if err != nil {
			return fmt.Errorf("meetTime oracle: %w", err)
		}
		b.meet = mt
		return nil
	})
}

// WithMeetTimeGen grants the meetTime oracle computed over the n-node
// sequence gen produces, with the given look-ahead horizon. gen must
// yield the sequence the execution plays — a generator built from the
// adversary's model and seed — and is called with t = 0, 1, 2, ...; no
// interaction is cached.
func WithMeetTimeGen(n int, gen func(t int) seq.Interaction, sink graph.NodeID, horizon int) Option {
	return optionFunc(func(b *Bundle) error {
		mt, err := seq.NewMeetTimesGen(n, gen, sink, horizon)
		if err != nil {
			return fmt.Errorf("meetTime oracle: %w", err)
		}
		b.meet = mt
		return nil
	})
}

// WithFutures grants every node its own future, extracted from the
// finite sequence s.
func WithFutures(s *seq.Sequence) Option {
	return optionFunc(func(b *Bundle) error {
		futures := make([][]seq.TimedStep, s.N())
		for u := 0; u < s.N(); u++ {
			futures[u] = s.FutureOf(graph.NodeID(u))
		}
		b.futures = futures
		return nil
	})
}

// WithUnderlying grants the underlying graph Ḡ.
func WithUnderlying(g *graph.Undirected) Option {
	return optionFunc(func(b *Bundle) error {
		if g == nil {
			return errors.New("knowledge: nil underlying graph")
		}
		b.underlying = g
		return nil
	})
}

// WithFullSequence grants complete knowledge of the interaction sequence.
func WithFullSequence(view seq.View) Option {
	return optionFunc(func(b *Bundle) error {
		if view == nil {
			return errors.New("knowledge: nil sequence view")
		}
		b.full = view
		return nil
	})
}

// NewBundle assembles a Bundle from the granted oracles.
func NewBundle(opts ...Option) (*Bundle, error) {
	b := &Bundle{}
	for _, o := range opts {
		if err := o.apply(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// HasMeetTime reports whether the meetTime oracle is granted.
func (b *Bundle) HasMeetTime() bool { return b != nil && b.meet != nil }

// MeetTime returns u.meetTime(t) and whether a meeting exists within the
// oracle's horizon. Calling it without the grant returns ErrNotGranted.
func (b *Bundle) MeetTime(u graph.NodeID, t int) (int, bool, error) {
	if !b.HasMeetTime() {
		return 0, false, ErrNotGranted
	}
	mt, ok := b.meet.Next(u, t)
	return mt, ok, nil
}

// MeetTimeWithin returns u.meetTime(t) and whether it is at most limit,
// scanning no further than limit to decide (see seq.MeetTimes.NextWithin).
// Calling it without the grant returns ErrNotGranted.
func (b *Bundle) MeetTimeWithin(u graph.NodeID, t, limit int) (int, bool, error) {
	if !b.HasMeetTime() {
		return 0, false, ErrNotGranted
	}
	mt, ok := b.meet.NextWithin(u, t, limit)
	return mt, ok, nil
}

// SoonerToMeet returns whichever of u1 and u2 has the smaller meetTime(t),
// u1 on a tie, where a meeting beyond the oracle's horizon counts as +∞;
// it scans only until the first of the two meetings (see
// seq.MeetTimes.Sooner). Calling it without the grant returns
// ErrNotGranted.
func (b *Bundle) SoonerToMeet(u1, u2 graph.NodeID, t int) (graph.NodeID, error) {
	if !b.HasMeetTime() {
		return 0, ErrNotGranted
	}
	return b.meet.Sooner(u1, u2, t), nil
}

// HasFutures reports whether per-node futures are granted.
func (b *Bundle) HasFutures() bool { return b != nil && b.futures != nil }

// FutureOf returns u's future. The slice is shared; callers must not
// mutate it.
func (b *Bundle) FutureOf(u graph.NodeID) ([]seq.TimedStep, error) {
	if !b.HasFutures() {
		return nil, ErrNotGranted
	}
	if u < 0 || int(u) >= len(b.futures) {
		return nil, fmt.Errorf("knowledge: node %d out of range", u)
	}
	return b.futures[u], nil
}

// NumFutures returns how many nodes have futures (the node count), or 0
// when not granted.
func (b *Bundle) NumFutures() int {
	if !b.HasFutures() {
		return 0
	}
	return len(b.futures)
}

// HasUnderlying reports whether Ḡ is granted.
func (b *Bundle) HasUnderlying() bool { return b != nil && b.underlying != nil }

// Underlying returns the underlying graph Ḡ.
func (b *Bundle) Underlying() (*graph.Undirected, error) {
	if !b.HasUnderlying() {
		return nil, ErrNotGranted
	}
	return b.underlying, nil
}

// HasFullSequence reports whether the full sequence is granted.
func (b *Bundle) HasFullSequence() bool { return b != nil && b.full != nil }

// FullSequence returns the granted sequence view.
func (b *Bundle) FullSequence() (seq.View, error) {
	if !b.HasFullSequence() {
		return nil, ErrNotGranted
	}
	return b.full, nil
}
