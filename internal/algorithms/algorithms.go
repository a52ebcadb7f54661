// Package algorithms implements the DODA algorithms studied in the paper:
//
//   - Waiting (W ∈ D∅ODA): transmit only when interacting with the sink.
//   - Gathering (GA ∈ D∅ODA): transmit when interacting with the sink or
//     any node owning data; Corollary 2 shows it is optimal without
//     knowledge under the randomized adversary.
//   - Waiting Greedy (WGτ ∈ D∅ODA(meetTime)): the node with the greater
//     next-meeting time with the sink transmits, provided that meeting
//     time exceeds τ; Theorem 11 shows it is optimal in DODA(meetTime)
//     for τ = Θ(n^{3/2}√log n).
//   - SpanningTree (∈ D∅ODA(Ḡ)): wait for all children in a deterministic
//     spanning tree of the underlying graph, then transmit to the parent
//     (Theorems 4 and 5).
//   - FullKnowledge (∈ D∅ODA(full knowledge)): play the optimal offline
//     schedule (Theorem 8).
//   - FutureOptimal (∈ DODA(future)): gossip futures, agree on the time
//     everyone is informed, then play the optimal schedule computed on
//     the suffix (Theorem 6, Corollary 1).
package algorithms

import (
	"errors"
	"fmt"
	"math"

	"doda/internal/bitset"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/offline"
	"doda/internal/rng"
	"doda/internal/seq"
)

// Waiting is the paper's W algorithm: a node transmits only when it is
// connected to the sink.
type Waiting struct{}

var _ core.Algorithm = Waiting{}

// Name implements core.Algorithm.
func (Waiting) Name() string { return "waiting" }

// Oblivious reports membership in D∅ODA.
func (Waiting) Oblivious() bool { return true }

// Setup implements core.Algorithm; Waiting needs no knowledge.
func (Waiting) Setup(*core.Env) error { return nil }

// Decide transmits to the sink when present, else waits.
func (Waiting) Decide(env *core.Env, it seq.Interaction, _ int) core.Decision {
	switch env.Sink {
	case it.U:
		return core.FirstReceives
	case it.V:
		return core.SecondReceives
	default:
		return core.NoTransfer
	}
}

// TieBreak selects Gathering's receiver when neither endpoint is the
// sink. The paper fixes FirstByID ("u1 otherwise", nodes ordered by
// identifier); the alternatives exist for the A1 ablation, which checks
// that the (n-1)² expectation is tie-break independent.
type TieBreak int

const (
	// FirstByID designates the smaller identifier as receiver (paper).
	FirstByID TieBreak = iota + 1
	// SecondByID designates the larger identifier as receiver.
	SecondByID
	// RandomTieBreak flips a deterministic seeded coin per decision.
	RandomTieBreak
)

// Gathering is the paper's GA algorithm: a node transmits when connected
// to the sink or to another node owning data.
type Gathering struct {
	tie TieBreak
	src *rng.Source
}

var _ core.Algorithm = (*Gathering)(nil)

// NewGathering returns the paper's Gathering algorithm (FirstByID).
func NewGathering() *Gathering { return &Gathering{tie: FirstByID} }

// NewGatheringTieBreak returns a Gathering variant with the given
// tie-break; seed matters only for RandomTieBreak.
func NewGatheringTieBreak(tie TieBreak, seed uint64) (*Gathering, error) {
	switch tie {
	case FirstByID, SecondByID:
		return &Gathering{tie: tie}, nil
	case RandomTieBreak:
		return &Gathering{tie: tie, src: rng.New(seed)}, nil
	default:
		return nil, fmt.Errorf("algorithms: unknown tie-break %d", tie)
	}
}

// Name implements core.Algorithm.
func (g *Gathering) Name() string {
	switch g.tie {
	case SecondByID:
		return "gathering(second)"
	case RandomTieBreak:
		return "gathering(random)"
	default:
		return "gathering"
	}
}

// Oblivious reports membership in D∅ODA.
func (g *Gathering) Oblivious() bool { return true }

// Setup implements core.Algorithm; Gathering needs no knowledge.
func (g *Gathering) Setup(*core.Env) error { return nil }

// Decide always transfers: to the sink when present, else per tie-break.
func (g *Gathering) Decide(env *core.Env, it seq.Interaction, _ int) core.Decision {
	switch env.Sink {
	case it.U:
		return core.FirstReceives
	case it.V:
		return core.SecondReceives
	}
	switch g.tie {
	case SecondByID:
		return core.SecondReceives
	case RandomTieBreak:
		if g.src.Bool() {
			return core.SecondReceives
		}
		return core.FirstReceives
	default:
		return core.FirstReceives
	}
}

// WaitingGreedy is the paper's WGτ algorithm: with m1 = u1.meetTime(t)
// and m2 = u2.meetTime(t),
//
//	u1 receives if m1 <= m2 and τ < m2,
//	u2 receives if m1 >  m2 and τ < m1,
//	⊥ otherwise.
//
// A node whose next sink meeting is beyond τ (or nonexistent) hands its
// data to the node that will meet the sink sooner; after time τ it
// behaves like Gathering. Requires the meetTime oracle.
//
// Decide evaluates the rule lazily. WGτ transfers iff the later of m1,
// m2 is after τ, and then the endpoint with the sooner meeting receives.
// So it first asks, for each endpoint, only whether its meeting comes by
// τ: both do gives ⊥, exactly one does makes that one the receiver.
// Only when neither does it ask which meets the sink first, a scan that
// stops at the first of the two meetings, with u1 receiving when neither
// meets the sink within the oracle's horizon (both +∞). Neither exact
// meeting time beyond τ is ever computed.
type WaitingGreedy struct {
	// Tau is the threshold parameter τ; Corollary 3 sets it to
	// Θ(n^{3/2}√log n). math.MaxInt stands for τ = +∞, under which no
	// meeting is ever after τ and nothing transfers.
	Tau int
}

var _ core.Algorithm = WaitingGreedy{}

// TauStar returns the optimal threshold of Corollary 3,
// ⌈n^{3/2}·√(log n)⌉ (natural logarithm).
func TauStar(n int) int {
	if n < 2 {
		return 0
	}
	fn := float64(n)
	return int(math.Ceil(fn * math.Sqrt(fn) * math.Sqrt(math.Log(fn))))
}

// Name implements core.Algorithm.
func (w WaitingGreedy) Name() string { return fmt.Sprintf("waiting-greedy(τ=%d)", w.Tau) }

// Oblivious reports membership in D∅ODA(meetTime): decisions use no node
// memory, only the oracle.
func (WaitingGreedy) Oblivious() bool { return true }

// Setup verifies the meetTime oracle is granted.
func (WaitingGreedy) Setup(env *core.Env) error {
	if !env.Know.HasMeetTime() {
		return errors.New("algorithms: waiting-greedy requires the meetTime oracle")
	}
	return nil
}

// Decide implements the WGτ rule; meetings beyond the oracle horizon are
// treated as +∞ (the node certainly cannot reach the sink before τ).
// The oracle errors only when it is not granted, which Setup rules out.
func (w WaitingGreedy) Decide(env *core.Env, it seq.Interaction, t int) core.Decision {
	if w.Tau == math.MaxInt {
		return core.NoTransfer
	}
	_, near1, _ := env.Know.MeetTimeWithin(it.U, t, w.Tau)
	_, near2, _ := env.Know.MeetTimeWithin(it.V, t, w.Tau)
	switch {
	case near1 && near2:
		return core.NoTransfer
	case near1:
		return core.FirstReceives
	case near2:
		return core.SecondReceives
	}
	if first, _ := env.Know.SoonerToMeet(it.U, it.V, t); first == it.U {
		return core.FirstReceives
	}
	return core.SecondReceives
}

// SpanningTree is the algorithm of Theorems 4 and 5: all nodes compute
// the same spanning tree of the underlying graph Ḡ (rooted at the sink),
// each waits for the data of all its children and then transmits to its
// parent at the first opportunity. Optimal when Ḡ is a tree (Theorem 5);
// finite but unbounded cost in general (Theorem 4). Requires Ḡ.
//
// A SpanningTree instance carries per-run state: use a fresh instance for
// each execution.
type SpanningTree struct {
	tree    *graph.Tree
	pending []int // per node: children whose data has not yet arrived
}

var _ core.Algorithm = (*SpanningTree)(nil)

// NewSpanningTree returns a fresh instance.
func NewSpanningTree() *SpanningTree { return &SpanningTree{} }

// Name implements core.Algorithm.
func (s *SpanningTree) Name() string { return "spanning-tree" }

// Oblivious reports that the algorithm keeps per-node state (the paper's
// Theorem 4/5 algorithm is presented memoryless given Ḡ, but counting
// received children requires memory in our engine model).
func (s *SpanningTree) Oblivious() bool { return false }

// Setup computes the shared spanning tree from Ḡ.
func (s *SpanningTree) Setup(env *core.Env) error {
	if s.tree != nil {
		return errors.New("algorithms: spanning-tree instances are single-run; create a new one")
	}
	g, err := env.Know.Underlying()
	if err != nil {
		return fmt.Errorf("algorithms: spanning-tree requires the underlying graph: %w", err)
	}
	if g.N() != env.N {
		return fmt.Errorf("algorithms: underlying graph has %d nodes, env has %d", g.N(), env.N)
	}
	tree, err := g.SpanningTree(env.Sink)
	if err != nil {
		return fmt.Errorf("algorithms: spanning-tree: %w", err)
	}
	s.tree = tree
	s.pending = make([]int, env.N)
	for u := 0; u < env.N; u++ {
		s.pending[u] = len(tree.Children(graph.NodeID(u)))
	}
	return nil
}

// Decide transmits child→parent once the child has gathered its whole
// subtree.
func (s *SpanningTree) Decide(_ *core.Env, it seq.Interaction, _ int) core.Decision {
	if s.tree.Parent[it.U] == it.V && s.pending[it.U] == 0 {
		s.pending[it.V]--
		return core.SecondReceives // U sends up to its parent V
	}
	if s.tree.Parent[it.V] == it.U && s.pending[it.V] == 0 {
		s.pending[it.U]--
		return core.FirstReceives // V sends up to its parent U
	}
	return core.NoTransfer
}

// FullKnowledge plays the optimal offline schedule, which nodes can all
// compute from full knowledge of the sequence (the setting of Theorem 8:
// Θ(n log n) interactions under the randomized adversary).
type FullKnowledge struct {
	// Horizon bounds the schedule search on unbounded sequences.
	Horizon int

	plan *offline.Schedule
}

var _ core.Algorithm = (*FullKnowledge)(nil)

// NewFullKnowledge returns a fresh instance with the given search
// horizon (for finite sequences the horizon is clamped to the length).
func NewFullKnowledge(horizon int) *FullKnowledge {
	return &FullKnowledge{Horizon: horizon}
}

// Name implements core.Algorithm.
func (f *FullKnowledge) Name() string { return "full-knowledge" }

// Oblivious reports membership in D∅ODA(full knowledge).
func (f *FullKnowledge) Oblivious() bool { return true }

// Setup computes the optimal schedule from the granted sequence.
func (f *FullKnowledge) Setup(env *core.Env) error {
	if f.plan != nil {
		return errors.New("algorithms: full-knowledge instances are single-run; create a new one")
	}
	view, err := env.Know.FullSequence()
	if err != nil {
		return fmt.Errorf("algorithms: full-knowledge requires the sequence: %w", err)
	}
	plan, err := offline.Plan(view, env.Sink, 0, f.Horizon)
	if err != nil {
		return fmt.Errorf("algorithms: full-knowledge: %w", err)
	}
	f.plan = plan
	return nil
}

// Decide follows the precomputed schedule.
func (f *FullKnowledge) Decide(_ *core.Env, it seq.Interaction, t int) core.Decision {
	if f.plan.SendTime[it.U] == t {
		return core.DecisionFor(it, f.plan.Receiver[it.U])
	}
	if f.plan.SendTime[it.V] == t {
		return core.DecisionFor(it, f.plan.Receiver[it.V])
	}
	return core.NoTransfer
}

// futureState is FutureOptimal's per-node memory: which nodes' futures
// this node has learned so far.
type futureState struct {
	known *bitset.Set
}

// FutureOptimal is the algorithm of Theorem 6: nodes gossip their futures
// as control information on every interaction; once a node knows every
// future it reconstructs the full sequence, deterministically derives the
// time T* at which *all* nodes are informed (by replaying the gossip),
// and plays the optimal offline schedule computed on the suffix after T*.
// All informed nodes derive the same T* and schedule, so transfers are
// consistent. Theorem 6: cost ≤ n on every sequence; Corollary 1:
// Θ(n log n) interactions under the randomized adversary.
//
// A FutureOptimal instance carries per-run state: use a fresh instance
// per execution. It requires the futures oracle over a finite sequence.
type FutureOptimal struct {
	// Horizon bounds the schedule search.
	Horizon int

	full  *seq.Sequence
	tstar int
	plan  *offline.Schedule
}

var _ core.Algorithm = (*FutureOptimal)(nil)
var _ core.Observer = (*FutureOptimal)(nil)

// NewFutureOptimal returns a fresh instance with the given search
// horizon.
func NewFutureOptimal(horizon int) *FutureOptimal {
	return &FutureOptimal{Horizon: horizon, tstar: -1}
}

// Name implements core.Algorithm.
func (f *FutureOptimal) Name() string { return "future-optimal" }

// Oblivious reports that nodes remember learned futures.
func (f *FutureOptimal) Oblivious() bool { return false }

// Setup initialises each node's knowledge to its own future.
func (f *FutureOptimal) Setup(env *core.Env) error {
	if f.plan != nil || f.full != nil {
		return errors.New("algorithms: future-optimal instances are single-run; create a new one")
	}
	if !env.Know.HasFutures() {
		return errors.New("algorithms: future-optimal requires the futures oracle")
	}
	for u := 0; u < env.N; u++ {
		st := &futureState{known: bitset.New(env.N)}
		st.known.Add(u)
		env.State[u] = st
	}
	return nil
}

// Observe exchanges control information: both endpoints learn the union
// of the futures either knows. When a node first becomes fully informed,
// it computes the global plan.
func (f *FutureOptimal) Observe(env *core.Env, it seq.Interaction, t int) {
	su, okU := env.State[it.U].(*futureState)
	sv, okV := env.State[it.V].(*futureState)
	if !okU || !okV {
		return // Setup not run; Decide will never transfer
	}
	su.known.UnionWith(sv.known)
	sv.known.UnionWith(su.known)
	if f.plan == nil && su.known.Full() {
		f.computePlan(env, t)
	}
}

// computePlan reconstructs the sequence from the futures, replays the
// gossip to find T* (when the last node becomes informed), and computes
// the optimal convergecast on the suffix. Any informed node performs the
// same deterministic computation.
func (f *FutureOptimal) computePlan(env *core.Env, now int) {
	full, err := reconstruct(env)
	if err != nil {
		return // inconsistent futures: refuse to transfer rather than guess
	}
	tstar, ok := gossipCompletion(full)
	if !ok || tstar < now {
		// Everyone informed means tstar is exactly the current time or
		// earlier is impossible; tolerate tstar == now.
		if !ok {
			return
		}
	}
	plan, err := offline.Plan(full, env.Sink, tstar+1, f.Horizon)
	if err != nil {
		return // no convergecast fits: keep waiting (cost stays finite only if one exists)
	}
	f.full = full
	f.tstar = tstar
	f.plan = plan
}

// Decide plays the agreed schedule after T*.
func (f *FutureOptimal) Decide(_ *core.Env, it seq.Interaction, t int) core.Decision {
	if f.plan == nil || t <= f.tstar {
		return core.NoTransfer
	}
	if f.plan.SendTime[it.U] == t {
		return core.DecisionFor(it, f.plan.Receiver[it.U])
	}
	if f.plan.SendTime[it.V] == t {
		return core.DecisionFor(it, f.plan.Receiver[it.V])
	}
	return core.NoTransfer
}

// reconstruct rebuilds the full finite sequence from the per-node
// futures: every interaction appears in exactly the two endpoint
// futures.
func reconstruct(env *core.Env) (*seq.Sequence, error) {
	length := 0
	type slot struct {
		it  seq.Interaction
		set bool
	}
	var slots []slot
	for u := 0; u < env.N; u++ {
		future, err := env.Know.FutureOf(graph.NodeID(u))
		if err != nil {
			return nil, err
		}
		for _, step := range future {
			if step.T >= length {
				length = step.T + 1
			}
			for len(slots) < length {
				slots = append(slots, slot{})
			}
			it, err := seq.NewInteraction(graph.NodeID(u), step.With)
			if err != nil {
				return nil, err
			}
			if slots[step.T].set && slots[step.T].it != it {
				return nil, fmt.Errorf("algorithms: conflicting futures at t=%d", step.T)
			}
			slots[step.T] = slot{it: it, set: true}
		}
	}
	steps := make([]seq.Interaction, len(slots))
	for t, s := range slots {
		if !s.set {
			return nil, fmt.Errorf("algorithms: no interaction recorded at t=%d", t)
		}
		steps[t] = s.it
	}
	return seq.NewSequence(env.N, steps)
}

// gossipCompletion replays the future-gossip over the full sequence and
// returns the first time at which every node knows every future.
func gossipCompletion(full *seq.Sequence) (int, bool) {
	n := full.N()
	known := make([]*bitset.Set, n)
	for u := range known {
		known[u] = bitset.New(n)
		known[u].Add(u)
	}
	fullCount := 0
	for u := range known {
		if known[u].Full() {
			fullCount++
		}
	}
	for t := 0; t < full.Len(); t++ {
		it := full.At(t)
		wasU, wasV := known[it.U].Full(), known[it.V].Full()
		known[it.U].UnionWith(known[it.V])
		known[it.V].UnionWith(known[it.U])
		if !wasU && known[it.U].Full() {
			fullCount++
		}
		if !wasV && known[it.V].Full() {
			fullCount++
		}
		if fullCount == n {
			return t, true
		}
	}
	return 0, false
}
