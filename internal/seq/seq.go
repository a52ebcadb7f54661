// Package seq models dynamic graphs the way the paper does: as a couple
// (V, I) where I = (I_t) is a sequence of pairwise interactions whose
// index is its time of occurrence. It provides materialised finite
// sequences, lazily-materialised unbounded streams (the randomized
// adversary's output), generators, per-node futures, the underlying graph
// Ḡ, and meet-time indexes used by the meetTime knowledge oracle.
package seq

import (
	"fmt"
	"math"
	"sort"

	"doda/internal/graph"
	"doda/internal/rng"
)

// Interaction is one pairwise interaction {U, V}, stored canonically with
// U < V. Its time of occurrence is its index in the enclosing sequence.
type Interaction struct {
	U, V graph.NodeID
}

// NewInteraction returns the canonical Interaction for {a, b}; it rejects
// self-interactions and negative identifiers, so a canonical Interaction
// only ever needs an upper range check downstream.
func NewInteraction(a, b graph.NodeID) (Interaction, error) {
	if a < 0 || b < 0 {
		return Interaction{}, fmt.Errorf("seq: negative node id in {%d,%d}", a, b)
	}
	if a == b {
		return Interaction{}, fmt.Errorf("seq: node %d cannot interact with itself", a)
	}
	if a > b {
		a, b = b, a
	}
	return Interaction{U: a, V: b}, nil
}

// Canon returns the canonical form of it and whether it is a valid
// interaction of an n-node network: no self-loop, no negative id, both
// endpoints below n. It is the hot-loop check the engine, the sharded
// runtime and the server's admission share, small enough to inline;
// CanonError explains a rejection.
func Canon(it Interaction, n int) (Interaction, bool) {
	if it.U > it.V {
		it.U, it.V = it.V, it.U
	}
	return it, it.U >= 0 && it.U != it.V && int(it.V) < n
}

// CanonError is the error for an interaction Canon rejected: the one
// NewInteraction reports, or else an out-of-range error naming the
// canonical pair.
func CanonError(it Interaction) error {
	canon, err := NewInteraction(it.U, it.V)
	if err != nil {
		return err
	}
	return fmt.Errorf("interaction %v out of range", canon)
}

// MustInteraction is NewInteraction for literals; it panics on self-pairs.
func MustInteraction(a, b graph.NodeID) Interaction {
	i, err := NewInteraction(a, b)
	if err != nil {
		panic(err)
	}
	return i
}

// Involves reports whether u is an endpoint of the interaction.
func (i Interaction) Involves(u graph.NodeID) bool {
	return i.U == u || i.V == u
}

// Other returns the endpoint that is not u and whether u participates.
func (i Interaction) Other(u graph.NodeID) (graph.NodeID, bool) {
	switch u {
	case i.U:
		return i.V, true
	case i.V:
		return i.U, true
	default:
		return 0, false
	}
}

// String renders the interaction as {u,v}.
func (i Interaction) String() string {
	return fmt.Sprintf("{%d,%d}", i.U, i.V)
}

// TimedStep is one entry of a node's future: at time T the node interacts
// with node With.
type TimedStep struct {
	T    int
	With graph.NodeID
}

// View is read access to an interaction sequence. At may materialise lazy
// streams and therefore is not safe for concurrent use unless documented
// otherwise by the implementation.
type View interface {
	// N returns the number of nodes in V.
	N() int
	// At returns the interaction occurring at time t >= 0.
	At(t int) Interaction
	// Bound returns the sequence length when the sequence is finite.
	Bound() (length int, finite bool)
}

// Sequence is a finite, fully materialised interaction sequence.
type Sequence struct {
	n     int
	steps []Interaction
}

var _ View = (*Sequence)(nil)

// NewSequence validates steps against the node count n and copies them
// into a Sequence.
func NewSequence(n int, steps []Interaction) (*Sequence, error) {
	if n < 2 {
		return nil, fmt.Errorf("seq: need at least 2 nodes, got %d", n)
	}
	cp := make([]Interaction, len(steps))
	for t, it := range steps {
		canon, err := NewInteraction(it.U, it.V)
		if err != nil {
			return nil, fmt.Errorf("seq: step %d: %w", t, err)
		}
		if int(canon.V) >= n {
			return nil, fmt.Errorf("seq: step %d: interaction %v out of range [0,%d)", t, canon, n)
		}
		cp[t] = canon
	}
	return &Sequence{n: n, steps: cp}, nil
}

// N returns the number of nodes.
func (s *Sequence) N() int { return s.n }

// Len returns the number of interactions.
func (s *Sequence) Len() int { return len(s.steps) }

// Bound returns (Len, true).
func (s *Sequence) Bound() (int, bool) { return len(s.steps), true }

// At returns the interaction at time t; it panics when t is out of range,
// mirroring slice indexing (callers are expected to respect Bound).
func (s *Sequence) At(t int) Interaction {
	return s.steps[t]
}

// Slice returns the sub-sequence of interactions with times in [from, to).
// Bounds are clamped to the valid range.
func (s *Sequence) Slice(from, to int) *Sequence {
	if from < 0 {
		from = 0
	}
	if to > len(s.steps) {
		to = len(s.steps)
	}
	if from > to {
		from = to
	}
	cp := make([]Interaction, to-from)
	copy(cp, s.steps[from:to])
	return &Sequence{n: s.n, steps: cp}
}

// Concat returns s followed by t. Both must share the node count.
func (s *Sequence) Concat(t *Sequence) (*Sequence, error) {
	if s.n != t.n {
		return nil, fmt.Errorf("seq: node count mismatch %d vs %d", s.n, t.n)
	}
	steps := make([]Interaction, 0, len(s.steps)+len(t.steps))
	steps = append(steps, s.steps...)
	steps = append(steps, t.steps...)
	return &Sequence{n: s.n, steps: steps}, nil
}

// Repeat returns s repeated k times (k >= 0).
func (s *Sequence) Repeat(k int) *Sequence {
	if k < 0 {
		k = 0
	}
	steps := make([]Interaction, 0, len(s.steps)*k)
	for i := 0; i < k; i++ {
		steps = append(steps, s.steps...)
	}
	return &Sequence{n: s.n, steps: steps}
}

// UnderlyingGraph returns Ḡ = (V, E) with {u,v} ∈ E iff u and v interact
// at least once in the sequence (the paper's §3.2 definition).
func (s *Sequence) UnderlyingGraph() *graph.Undirected {
	g, err := graph.NewUndirected(s.n)
	if err != nil {
		// Unreachable: n >= 2 is enforced by the constructor.
		panic(err)
	}
	for _, it := range s.steps {
		if err := g.AddEdge(it.U, it.V); err != nil {
			panic(err) // unreachable: steps validated at construction
		}
	}
	return g
}

// FutureOf returns all interactions involving u with their times, in time
// order. This is the paper's u.future knowledge.
func (s *Sequence) FutureOf(u graph.NodeID) []TimedStep {
	var out []TimedStep
	for t, it := range s.steps {
		if w, ok := it.Other(u); ok {
			out = append(out, TimedStep{T: t, With: w})
		}
	}
	return out
}

// Stream is an unbounded interaction sequence, materialised lazily from a
// generator function and cached, so that repeated reads (including the
// look-ahead reads of the meetTime oracle) observe a single consistent
// sequence. Not safe for concurrent use.
type Stream struct {
	n     int
	gen   func(t int) Interaction
	steps []Interaction
}

var _ View = (*Stream)(nil)

// NewStream returns a Stream over n nodes driven by gen. The generator is
// invoked exactly once per time step, in increasing time order.
func NewStream(n int, gen func(t int) Interaction) (*Stream, error) {
	if n < 2 {
		return nil, fmt.Errorf("seq: need at least 2 nodes, got %d", n)
	}
	if gen == nil {
		return nil, fmt.Errorf("seq: nil generator")
	}
	return &Stream{n: n, gen: gen}, nil
}

// N returns the number of nodes.
func (s *Stream) N() int { return s.n }

// Bound reports the stream as unbounded.
func (s *Stream) Bound() (int, bool) { return 0, false }

// At returns the interaction at time t, materialising the prefix as
// needed.
func (s *Stream) At(t int) Interaction {
	for len(s.steps) <= t {
		it := s.gen(len(s.steps))
		if it.U > it.V {
			it.U, it.V = it.V, it.U
		}
		s.steps = append(s.steps, it)
	}
	return s.steps[t]
}

// MaterializedLen returns how many interactions have been generated so
// far.
func (s *Stream) MaterializedLen() int { return len(s.steps) }

// Prefix returns the first k interactions as a finite Sequence,
// materialising them if necessary.
func (s *Stream) Prefix(k int) *Sequence {
	if k < 0 {
		k = 0
	}
	if k > 0 {
		s.At(k - 1)
	}
	cp := make([]Interaction, k)
	copy(cp, s.steps[:k])
	return &Sequence{n: s.n, steps: cp}
}

// UniformGen returns a generator drawing each interaction uniformly at
// random over the n(n-1)/2 unordered pairs — the randomized adversary of
// §4. It draws through n's shared rng.PairTable, which returns exactly
// what src.Pair(n) would.
func UniformGen(n int, src *rng.Source) func(t int) Interaction {
	pairs := rng.PairTableFor(n)
	return func(int) Interaction {
		a, b := pairs.Pair(src)
		return Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}
	}
}

// Uniform returns a finite uniform-random sequence of the given length.
func Uniform(n, length int, src *rng.Source) (*Sequence, error) {
	if n < 2 {
		return nil, fmt.Errorf("seq: need at least 2 nodes, got %d", n)
	}
	if length < 0 {
		return nil, fmt.Errorf("seq: negative length %d", length)
	}
	steps := make([]Interaction, length)
	pairs := rng.PairTableFor(n)
	for t := range steps {
		a, b := pairs.Pair(src)
		steps[t] = Interaction{U: graph.NodeID(a), V: graph.NodeID(b)}
	}
	return &Sequence{n: n, steps: steps}, nil
}

// RoundRobinGen returns a generator cycling through the given edges in
// order forever: a recurrent schedule in which every interaction that
// occurs once occurs infinitely often (the hypothesis of Theorem 4).
func RoundRobinGen(edges []graph.Edge) (func(t int) Interaction, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("seq: round-robin needs at least one edge")
	}
	cp := make([]graph.Edge, len(edges))
	copy(cp, edges)
	return func(t int) Interaction {
		e := cp[t%len(cp)]
		return Interaction{U: e.U, V: e.V}
	}, nil
}

// RoundRobin returns rounds full passes over edges as a finite Sequence
// on n nodes.
func RoundRobin(n int, edges []graph.Edge, rounds int) (*Sequence, error) {
	gen, err := RoundRobinGen(edges)
	if err != nil {
		return nil, err
	}
	steps := make([]Interaction, 0, len(edges)*rounds)
	for t := 0; t < len(edges)*rounds; t++ {
		steps = append(steps, gen(t))
	}
	return NewSequence(n, steps)
}

// MeetTimes answers "when does node u next interact with the sink after
// time t" queries by scanning an interaction sequence once, in time
// order, and indexing each node's sink meetings, so that repeated
// queries cost amortised O(1) per examined interaction. This implements
// the paper's u.meetTime knowledge (§2.1): the smallest t' > t with
// I_t' = {u, s}; for u = s it is the identity t ↦ t.
//
// The index reads the sequence through a generator function called with
// t = 0, 1, 2, ... and keeps only the meeting times, never the
// interactions: over a View (NewMeetTimes) the generator is view.At;
// over a model's generator (NewMeetTimesGen) nothing is cached at all,
// so an oracle can scan a second generator instance of the sequence an
// adversary plays. Queries scan only as far as their answer needs:
// NextWithin stops at its limit, and Sooner at the first meeting of
// either node.
//
// Horizon bounds the total look-ahead: queries whose answer lies beyond
// horizon report no meeting. For finite views the natural horizon is the
// sequence length; for streams and generators callers must supply a
// budget.
type MeetTimes struct {
	gen     func(t int) Interaction
	n       int
	sink    graph.NodeID
	horizon int
	scanned int     // number of interactions examined so far
	times   [][]int // per node, increasing times of sink meetings
}

// NewMeetTimes builds a meet-time index for view and sink with the given
// look-ahead horizon (capped at the view's bound when finite).
func NewMeetTimes(view View, sink graph.NodeID, horizon int) (*MeetTimes, error) {
	if b, finite := view.Bound(); finite && horizon > b {
		horizon = b
	}
	return NewMeetTimesGen(view.N(), view.At, sink, horizon)
}

// NewMeetTimesGen builds a meet-time index for sink over the n-node
// sequence gen produces, with the given look-ahead horizon. gen is
// called exactly once per time step, with t = 0, 1, 2, ..., as a model
// generator requires; a fresh generator seeded like an adversary's
// yields the sequence that adversary plays.
func NewMeetTimesGen(n int, gen func(t int) Interaction, sink graph.NodeID, horizon int) (*MeetTimes, error) {
	if sink < 0 || int(sink) >= n {
		return nil, fmt.Errorf("seq: sink %d out of range [0,%d)", sink, n)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("seq: negative horizon %d", horizon)
	}
	if gen == nil {
		return nil, fmt.Errorf("seq: nil generator")
	}
	return &MeetTimes{
		gen:     gen,
		n:       n,
		sink:    sink,
		horizon: horizon,
		times:   make([][]int, n),
	}, nil
}

// Next returns the smallest time t' > t at which u interacts with the
// sink, and whether such a time exists within the horizon. For the sink
// itself it returns (t, true), per the paper's convention.
func (m *MeetTimes) Next(u graph.NodeID, t int) (int, bool) {
	return m.NextWithin(u, t, math.MaxInt)
}

// NextWithin is Next bounded at limit: it reports whether u's next
// meeting with the sink after t exists and is at most limit, returning
// that meeting when it does, and scans no further than limit to decide.
// For the sink itself the meeting is t.
func (m *MeetTimes) NextWithin(u graph.NodeID, t, limit int) (int, bool) {
	if u == m.sink {
		return t, t <= limit
	}
	if u < 0 || int(u) >= m.n {
		return 0, false
	}
	for {
		if mt, ok := m.indexed(u, t); ok {
			return mt, mt <= limit
		}
		// Every meeting before m.scanned is indexed, so none lies in
		// (t, limit] once the scan has passed limit.
		if m.scanned >= m.horizon || m.scanned > limit {
			return 0, false
		}
		m.extend()
	}
}

// Sooner returns whichever of a and b meets the sink first after t,
// scanning only until the first of the two meetings. A node with no
// meeting within the horizon meets it at +∞, and a tie (both at +∞)
// goes to a. The sink meets itself at t, before any other node.
func (m *MeetTimes) Sooner(a, b graph.NodeID, t int) graph.NodeID {
	if a == m.sink {
		return a
	}
	if b == m.sink {
		return b
	}
	for {
		ma, okA := m.indexed(a, t)
		mb, okB := m.indexed(b, t)
		// An indexed meeting precedes every unindexed one.
		switch {
		case okA && (!okB || ma <= mb):
			return a
		case okB:
			return b
		case m.scanned >= m.horizon:
			return a
		}
		m.extend()
	}
}

// indexed returns u's first meeting after t among those scanned so far.
func (m *MeetTimes) indexed(u graph.NodeID, t int) (int, bool) {
	if u < 0 || int(u) >= m.n {
		return 0, false
	}
	ts := m.times[u]
	if i := sort.SearchInts(ts, t+1); i < len(ts) {
		return ts[i], true
	}
	return 0, false
}

// scanChunk is how many interactions one extend call examines.
const scanChunk = 1024

// extend scans one more chunk of the sequence, indexing sink meetings.
func (m *MeetTimes) extend() {
	end := m.scanned + scanChunk
	if end > m.horizon {
		end = m.horizon
	}
	for t := m.scanned; t < end; t++ {
		it := m.gen(t)
		if w, ok := it.Other(m.sink); ok {
			m.times[w] = append(m.times[w], t)
		}
	}
	m.scanned = end
}

// Scanned returns how many interactions the index has examined; useful
// for instrumentation of look-ahead cost.
func (m *MeetTimes) Scanned() int { return m.scanned }
