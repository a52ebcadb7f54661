// Package doda is a faithful, executable reproduction of
//
//	Quentin Bramas, Toshimitsu Masuzawa, Sébastien Tixeuil:
//	"Distributed Online Data Aggregation in Dynamic Graphs",
//	ICDCS 2016 (arXiv:1602.01065).
//
// The paper studies distributed online data aggregation (DODA) in dynamic
// graphs modelled as sequences of pairwise interactions: every node
// starts with a datum, a node may transmit its (aggregated) datum at most
// once, and the goal is that the designated sink ends up as the only data
// owner. The library provides:
//
//   - the execution model (sequential engine and a concurrent
//     goroutine-per-node message-passing runtime),
//   - the paper's adversaries — oblivious, adaptive online (including the
//     executable impossibility constructions of Theorems 1–3), and the
//     randomized adversary,
//   - the paper's algorithms — Waiting, Gathering, Waiting Greedy,
//     spanning-tree convergecast, future-gossip optimal, and the
//     full-knowledge offline optimum,
//   - knowledge oracles (meetTime, future, underlying graph, full
//     sequence),
//   - the offline-optimum machinery: opt(t), the successive-convergecast
//     clock T(i) and the paper's cost function.
//
// The experiment harness that regenerates every quantitative result in
// the paper is the cmd/dodabench command; see EXPERIMENTS.md.
//
// Quick start:
//
//	adv, _, err := doda.RandomizedAdversary(64, 42)
//	if err != nil { ... }
//	res, err := doda.Run(doda.Config{N: 64, MaxInteractions: 1 << 20},
//	    doda.NewGathering(), adv)
//	fmt.Println(res.Terminated, res.Duration)
package doda

import (
	"doda/internal/adversary"
	"doda/internal/agg"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/offline"
	"doda/internal/seq"
	"doda/internal/sim"
	"doda/internal/trace"
)

// Model types.
type (
	// NodeID identifies a node; nodes are numbered 0..n-1 and the sink
	// defaults to node 0.
	NodeID = graph.NodeID
	// Interaction is one pairwise interaction {U, V} with U < V.
	Interaction = seq.Interaction
	// Sequence is a finite interaction sequence.
	Sequence = seq.Sequence
	// Stream is an unbounded, lazily materialised interaction sequence.
	Stream = seq.Stream
	// SequenceView is read access to either.
	SequenceView = seq.View
	// Graph is an undirected static graph (e.g. the underlying graph Ḡ).
	Graph = graph.Undirected
	// Edge is an undirected graph edge.
	Edge = graph.Edge
)

// Execution types.
type (
	// Algorithm is a distributed online data aggregation algorithm.
	Algorithm = core.Algorithm
	// Adversary produces the interaction sequence.
	Adversary = core.Adversary
	// Config parameterises an execution.
	Config = core.Config
	// Result summarises an execution.
	Result = core.Result
	// Knowledge is the set of oracles granted to nodes.
	Knowledge = knowledge.Bundle
	// KnowledgeOption grants one oracle.
	KnowledgeOption = knowledge.Option
	// Schedule is an optimal offline convergecast plan.
	Schedule = offline.Schedule
	// Clock iterates the successive-convergecast times T(i).
	Clock = offline.Clock
	// Runtime is the concurrent goroutine-per-node executor.
	Runtime = sim.Runtime
	// RuntimeConfig parameterises a concurrent execution.
	RuntimeConfig = sim.Config
	// TraceRecorder records executions as replayable event streams.
	TraceRecorder = trace.Recorder
)

// Aggregation functions.
var (
	// Min keeps the smallest payload.
	Min = agg.Min
	// Sum adds payloads.
	Sum = agg.Sum
)

// Run executes one algorithm against one adversary on the sequential
// engine.
func Run(cfg Config, alg Algorithm, adv Adversary) (Result, error) {
	return core.RunOnce(cfg, alg, adv)
}

// NewRuntime prepares a concurrent goroutine-per-node execution.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	return sim.NewRuntime(cfg)
}

// Algorithms.

// NewWaiting returns the paper's Waiting algorithm (transmit only to the
// sink).
func NewWaiting() Algorithm { return algorithms.Waiting{} }

// NewGathering returns the paper's Gathering algorithm (transmit to the
// sink or to any data owner), optimal without knowledge (Corollary 2).
func NewGathering() Algorithm { return algorithms.NewGathering() }

// NewWaitingGreedy returns Waiting Greedy with threshold tau; it requires
// the meetTime oracle (WithMeetTime).
func NewWaitingGreedy(tau int) Algorithm { return algorithms.WaitingGreedy{Tau: tau} }

// TauStar returns Corollary 3's optimal threshold ⌈n^{3/2}√(ln n)⌉.
func TauStar(n int) int { return algorithms.TauStar(n) }

// NewSpanningTree returns the Theorem 4/5 algorithm (wait for children in
// a shared spanning tree of Ḡ, then transmit to the parent); it requires
// the underlying-graph oracle (WithUnderlying). Single-run instances.
func NewSpanningTree() Algorithm { return algorithms.NewSpanningTree() }

// NewFullKnowledge returns the Theorem 8 algorithm playing the optimal
// offline schedule; it requires the full-sequence oracle
// (WithFullSequence). Single-run instances.
func NewFullKnowledge(horizon int) Algorithm { return algorithms.NewFullKnowledge(horizon) }

// NewFutureOptimal returns the Theorem 6 algorithm (gossip futures, then
// play the optimal suffix schedule); it requires the futures oracle
// (WithFutures). Single-run instances.
func NewFutureOptimal(horizon int) Algorithm { return algorithms.NewFutureOptimal(horizon) }

// Adversaries.

// RandomizedAdversary returns the §4 randomized adversary on n nodes and
// the lazily materialised stream backing it (hand the stream to
// WithMeetTime or WithFullSequence so oracles and adversary agree).
func RandomizedAdversary(n int, seed uint64) (Adversary, *Stream, error) {
	return adversary.Randomized(n, seed)
}

// ObliviousAdversary wraps any fixed sequence as an adversary.
func ObliviousAdversary(name string, view SequenceView) (Adversary, error) {
	return adversary.NewOblivious(name, view)
}

// RecurrentAdversary cycles through edges forever (Theorem 4's recurrent
// interactions).
func RecurrentAdversary(n int, edges []Edge) (Adversary, *Stream, error) {
	return adversary.Recurrent(n, edges)
}

// RecurrentAdversaryDelayed cycles through the frequent edges repeat
// times per round before playing the delayed edge once — the schedule
// family exhibiting Theorem 4's unbounded cost.
func RecurrentAdversaryDelayed(n int, frequent []Edge, delayed Edge, repeat int) (Adversary, *Stream, error) {
	return adversary.DelayedRecurrent(n, frequent, delayed, repeat)
}

// WeightedAdversary returns a non-uniform randomized adversary drawing
// interaction endpoints with probability proportional to the per-node
// weights — the paper's open question 3 (§5) made executable. Equal
// weights recover the uniform randomized adversary.
func WeightedAdversary(weights []float64, seed uint64) (Adversary, *Stream, error) {
	return adversary.Weighted(weights, seed)
}

// Theorem1Adversary returns the adaptive adversary that defeats every
// DODA algorithm on 3 nodes (Theorem 1).
func Theorem1Adversary(sink NodeID) (Adversary, error) {
	return adversary.NewTheorem1(3, sink)
}

// Theorem3Adversary returns the adaptive adversary that defeats every
// Ḡ-aware algorithm on the 4-node cycle (Theorem 3), along with the cycle
// graph to grant as knowledge.
func Theorem3Adversary(sink NodeID) (Adversary, *Graph, error) {
	th, err := adversary.NewTheorem3(4, sink)
	if err != nil {
		return nil, nil, err
	}
	g, err := th.UnderlyingGraph()
	if err != nil {
		return nil, nil, err
	}
	return th, g, nil
}

// Knowledge oracles.

// NewKnowledge assembles a knowledge bundle from the granted oracles.
func NewKnowledge(opts ...KnowledgeOption) (*Knowledge, error) {
	return knowledge.NewBundle(opts...)
}

// WithMeetTime grants u.meetTime(t) over view with a look-ahead horizon.
func WithMeetTime(view SequenceView, sink NodeID, horizon int) KnowledgeOption {
	return knowledge.WithMeetTime(view, sink, horizon)
}

// WithFutures grants every node its own future from the finite sequence.
func WithFutures(s *Sequence) KnowledgeOption { return knowledge.WithFutures(s) }

// WithUnderlying grants the underlying graph Ḡ.
func WithUnderlying(g *Graph) KnowledgeOption { return knowledge.WithUnderlying(g) }

// WithFullSequence grants complete knowledge of the sequence.
func WithFullSequence(view SequenceView) KnowledgeOption {
	return knowledge.WithFullSequence(view)
}

// Offline optimum and cost.

// Opt returns opt(from): the completion time of an optimal convergecast
// started at from, searched up to horizon.
func Opt(view SequenceView, sink NodeID, from, horizon int) (int, bool) {
	return offline.Opt(view, sink, from, horizon)
}

// PlanConvergecast computes the optimal convergecast schedule itself.
func PlanConvergecast(view SequenceView, sink NodeID, from, horizon int) (*Schedule, error) {
	return offline.Plan(view, sink, from, horizon)
}

// NewClock iterates T(1), T(2), ... — the successive-convergecast times
// defining the paper's cost function. Use Clock.Cost(duration) to obtain
// cost_A(I).
func NewClock(view SequenceView, sink NodeID, horizon int) (*Clock, error) {
	return offline.NewClock(view, sink, horizon)
}

// Sequences.

// NewSequence validates and copies a finite interaction sequence.
func NewSequence(n int, steps []Interaction) (*Sequence, error) {
	return seq.NewSequence(n, steps)
}

// Tracing.

// NewTraceRecorder returns an event recorder to plug into Config.Events.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
