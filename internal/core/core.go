// Package core implements the paper's distributed online data aggregation
// (DODA) framework: the algorithm and adversary contracts, per-node state,
// and the sequential execution engine that plays an algorithm against an
// adversary while enforcing the model's rules — a node transmits its data
// at most once, cannot participate after transmitting, and the execution
// terminates when the sink is the only node owning data.
//
// Every interaction the engine is handed is canonicalised, range-checked
// and counted, but the engine plays through its step only those an
// algorithm can act on: both endpoints own data, or the algorithm is an
// Observer, or an EventSink records every interaction. Any other
// interaction reaches no Decide and changes no state, so skipping it
// leaves every Result as it was; the concurrent runtime in internal/sim
// skips the same ones (see its prescreenBoth). Under the randomized
// adversary most interactions are such: about 9 in 10 of Waiting's, and
// over 98 in 100 of Gathering's.
//
// A ScreenedAdversary skips them before the engine sees them: given the
// ownership bitset, it consumes its sequence up to the next interaction
// between two owners and hands over that one alone, with its time. The
// engine still checks the interaction it is handed (canonical, in
// range, timed inside the span it asked for, both endpoints owning
// data) and counts the skipped ones, but it cannot check them: the
// adversary vouches that they were pairs of [0, n). The engine asks for
// screened interactions only where skipping is invisible, so never for
// an Observer or with an EventSink attached.
package core

import (
	"fmt"
	"math"

	"doda/internal/agg"
	"doda/internal/bitset"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/seq"
)

// Decision is the output of a DODA algorithm for one interaction
// I_t = {u, v} (canonically ordered u < v): either no transfer, or the
// identity of the receiver. If a node is designated receiver, the other
// node transmits its data to it (paper §2.1).
type Decision int

const (
	// NoTransfer is the paper's ⊥ output.
	NoTransfer Decision = iota
	// FirstReceives designates it.U (the smaller identifier) as receiver.
	FirstReceives
	// SecondReceives designates it.V as receiver.
	SecondReceives
)

// String renders the decision for traces.
func (d Decision) String() string {
	switch d {
	case NoTransfer:
		return "⊥"
	case FirstReceives:
		return "first"
	case SecondReceives:
		return "second"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Receiver resolves the receiving node of a decision for interaction it.
// ok is false for NoTransfer.
func (d Decision) Receiver(it seq.Interaction) (graph.NodeID, bool) {
	switch d {
	case FirstReceives:
		return it.U, true
	case SecondReceives:
		return it.V, true
	default:
		return 0, false
	}
}

// Sender resolves the transmitting node of a decision for interaction it.
func (d Decision) Sender(it seq.Interaction) (graph.NodeID, bool) {
	switch d {
	case FirstReceives:
		return it.V, true
	case SecondReceives:
		return it.U, true
	default:
		return 0, false
	}
}

// DecisionFor returns the Decision that makes receiver the receiver of
// interaction it, or NoTransfer if receiver is not an endpoint.
func DecisionFor(it seq.Interaction, receiver graph.NodeID) Decision {
	switch receiver {
	case it.U:
		return FirstReceives
	case it.V:
		return SecondReceives
	default:
		return NoTransfer
	}
}

// Env is the execution environment visible to algorithms: the network
// parameters, the knowledge oracles granted for this run, and per-node
// memory for non-oblivious algorithms.
type Env struct {
	// N is the number of nodes; nodes are 0..N-1.
	N int
	// Sink is the designated sink node.
	Sink graph.NodeID
	// Know carries the knowledge oracles granted to nodes (never nil;
	// an empty bundle for the paper's "no knowledge" setting).
	Know *knowledge.Bundle
	// State is per-node algorithm memory. Oblivious algorithms must not
	// touch it; stateful algorithms may store arbitrary values.
	State []any
}

// Algorithm is a distributed online data aggregation algorithm: it takes
// an interaction and its occurrence time and outputs the receiver, or ⊥.
//
// Implementations must be deterministic given (Env, interaction, time)
// and, per the model, may only base decisions on node-local information:
// the granted knowledge oracles, and the memories of the two interacting
// nodes.
type Algorithm interface {
	// Name identifies the algorithm in results and traces.
	Name() string
	// Oblivious reports whether the algorithm requires no persistent
	// node memory (the paper's D∅ODA class).
	Oblivious() bool
	// Setup is called once before execution starts; stateful algorithms
	// initialise Env.State here. Setup must fail if a required knowledge
	// oracle is missing from env.Know.
	Setup(env *Env) error
	// Decide is called for each interaction whose two endpoints both own
	// data; it returns the transfer decision.
	Decide(env *Env, it seq.Interaction, t int) Decision
}

// Observer is an optional extension for algorithms that need to see every
// interaction (not only those where both endpoints own data), e.g. to
// exchange control information such as known futures. Observe runs
// before Decide.
type Observer interface {
	Observe(env *Env, it seq.Interaction, t int)
}

// ExecView is the read-only view of the execution the adversary receives:
// the adaptive online adversary of §2.2 "can use the past execution of
// the algorithm to construct the next interaction".
type ExecView interface {
	// N returns the number of nodes.
	N() int
	// Sink returns the sink node.
	Sink() graph.NodeID
	// Owns reports whether node u currently owns data.
	Owns(u graph.NodeID) bool
	// OwnerCount returns how many nodes currently own data.
	OwnerCount() int
}

// Adversary produces the interaction sequence. Oblivious and randomized
// adversaries ignore the view; the adaptive online adversary reads it.
type Adversary interface {
	// Name identifies the adversary in results and traces.
	Name() string
	// Next returns the interaction at time t. ok is false when the
	// adversary's sequence is exhausted (finite oblivious sequences).
	Next(t int, view ExecView) (seq.Interaction, bool)
}

// BatchAdversary is an optional extension for adversaries whose future
// does not depend on the execution (every oblivious source): the engine
// drains whole buffers of interactions at once, amortising the
// per-interaction interface dispatch and validation of the scalar path
// across the batch. Adaptive adversaries must NOT implement it — they
// need the post-interaction view — and simply keep the scalar Next path;
// the engine falls back transparently.
type BatchAdversary interface {
	Adversary
	// NextBatch fills buf with the interactions at times t, t+1, ...,
	// t+k-1 and returns k. Returning k < len(buf) means the sequence is
	// exhausted after those k interactions (k may be 0); the engine will
	// not call NextBatch again. The engine may consume fewer than k
	// interactions when the run ends mid-batch, so implementations must
	// not assume every generated interaction is played.
	NextBatch(t int, view ExecView, buf []seq.Interaction) int
}

// ScreenedAdversary is an optional extension of BatchAdversary for
// adversaries that can skip, at the source, the interactions no
// algorithm acts on: those whose endpoints do not both own data (see
// Engine.plays). The engine hands it the ownership bitset and takes
// back only the next interaction between two owners, counting the ones
// skipped on the way. It does so only when the algorithm is not an
// Observer, no EventSink is attached and N matches the run's node
// count; otherwise it drains NextBatch as for any BatchAdversary, and
// the Results are the same either way. The sequence must be unbounded:
// NextOwned has no way to report exhaustion.
type ScreenedAdversary interface {
	BatchAdversary
	// N returns the node count the sequence ranges over.
	N() int
	// NextOwned consumes the sequence from time t through the first
	// interaction whose two endpoints both have their bit set in owners
	// (bit u at owners[u/64] bit u%64), at most span interactions, and
	// returns that interaction and its time at. ok is false when all
	// span interactions were consumed and none qualified. It must not
	// consume past the interaction it returns: the engine may hand the
	// next call a different owners set, or stop. owners aliases engine
	// state and must not be mutated or kept.
	NextOwned(t, span int, owners []uint64) (it seq.Interaction, at int, ok bool)
}

// ProvenanceMode selects how much per-datum provenance an execution
// maintains. Full provenance costs an O(n/64)-word bitset union per
// transfer and O(n²/8) bytes of bitset memory per engine — negligible for
// the paper-scale runs the tests use, but the dominant cost at n ≥ 10⁵.
type ProvenanceMode int

const (
	// ProvenanceFull (the default) tracks the full origin bitset of
	// every datum: the engine detects double aggregation at the moment
	// of the offending transfer and verifies on termination that the
	// sink's datum folds in all n origins exactly once.
	ProvenanceFull ProvenanceMode = iota
	// ProvenanceCount drops the origin bitsets: Result.SinkValue.Origins
	// is nil and only the fold count is maintained. Termination still
	// verifies count == n, transmissions == n-1 and (optionally) the
	// aggregate value, but a double aggregation compensated by a missed
	// one would go undetected.
	ProvenanceCount
	// ProvenanceOff additionally skips all end-of-run verification of
	// the sink value; only the structural run statistics are reported.
	ProvenanceOff
)

// String renders the mode the way CLI flags and sweep cells spell it.
func (m ProvenanceMode) String() string {
	switch m {
	case ProvenanceFull:
		return "full"
	case ProvenanceCount:
		return "count"
	case ProvenanceOff:
		return "off"
	default:
		return fmt.Sprintf("ProvenanceMode(%d)", int(m))
	}
}

// ParseProvenanceMode parses "full", "count" or "off".
func ParseProvenanceMode(s string) (ProvenanceMode, error) {
	switch s {
	case "full":
		return ProvenanceFull, nil
	case "count":
		return ProvenanceCount, nil
	case "off":
		return ProvenanceOff, nil
	default:
		return 0, fmt.Errorf("core: unknown provenance mode %q (want full, count or off)", s)
	}
}

// Event describes one executed interaction, for tracing.
type Event struct {
	T        int
	It       seq.Interaction
	Decision Decision
	Sender   graph.NodeID // valid when Decision != NoTransfer
	Receiver graph.NodeID // valid when Decision != NoTransfer
	// BothOwned reports whether the algorithm was consulted (both
	// endpoints owned data).
	BothOwned bool
}

// EventSink receives execution events; used by the trace recorder.
type EventSink interface {
	// OnEvent is called after each interaction is resolved.
	OnEvent(ev Event)
	// OnDone is called once, after the run ends.
	OnDone(res Result)
}

// Result summarises one execution.
type Result struct {
	// Algorithm and Adversary echo the participants' names.
	Algorithm string
	Adversary string
	// Terminated reports that the sink became the only data owner.
	Terminated bool
	// Failed reports an unwinnable state: the sink transmitted its data
	// away and can never satisfy the termination condition.
	Failed bool
	// FailReason explains a failure.
	FailReason string
	// Duration is the time index of the last transmission (-1 if no
	// transmission happened). When Terminated, this is the paper's
	// duration(A, I).
	Duration int
	// Interactions is the number of interactions consumed.
	Interactions int
	// Transmissions counts data transfers (n-1 exactly when terminated).
	Transmissions int
	// Declined counts interactions where both endpoints owned data but
	// the algorithm output ⊥.
	Declined int
	// LastGap is the number of interactions strictly between the
	// second-to-last and the last transmission (Theorem 7 measures its
	// expectation at n(n-1)/2).
	LastGap int
	// SinkValue is the sink's datum at the end of the run. Its Origins
	// set aliases engine-owned storage that Engine.Reset recycles: read
	// or clone it before resetting the engine that produced it. Under
	// ProvenanceCount and ProvenanceOff, Origins is nil.
	SinkValue agg.Value
}

// Config parameterises an execution.
type Config struct {
	// N is the number of nodes (>= 2).
	N int
	// Sink designates the sink node (default 0).
	Sink graph.NodeID
	// Agg is the aggregation function (default agg.Min).
	Agg agg.Func
	// Payloads are the nodes' initial data (default: payload of node i is
	// float64(i)). Length must equal N when provided.
	Payloads []float64
	// MaxInteractions caps the run (required, > 0): executions against
	// unbounded adversaries stop, unterminated, at this horizon.
	MaxInteractions int
	// Know carries the knowledge oracles granted to nodes (nil = none).
	Know *knowledge.Bundle
	// Events receives trace events (nil = no tracing).
	Events EventSink
	// VerifyAggregate re-computes the expected sink payload on
	// termination and fails the run on mismatch. Cheap; on by default in
	// tests via NewEngine's callers. Ignored under ProvenanceOff.
	VerifyAggregate bool
	// Provenance selects how much per-datum provenance the run maintains
	// (default ProvenanceFull). Large-n measurement runs use
	// ProvenanceCount to shed the per-transfer bitset union and the
	// O(n²) bitset memory; see ProvenanceMode for what each mode still
	// verifies.
	Provenance ProvenanceMode
	// Arena, when set, supplies the engine's word-backed state — the
	// packed ownership bitset and, under full provenance, every origin
	// set — from one contiguous pre-sized block instead of n+1 separate
	// heap objects. The arena's shape must match (N, Provenance)
	// exactly. The serving layer gives each hosted instance its own
	// arena so instance memory is one block, released in O(1) at
	// eviction; see NewArena.
	Arena *Arena
}

// Engine executes one algorithm against one adversary. A fresh Engine (or
// a Reset one) runs exactly once; sweep workers call Reset between runs to
// reuse the engine's slices and provenance bitsets instead of reallocating
// them per cell.
type Engine struct {
	cfg  Config
	env  *Env
	owns []bool
	data []agg.Value
	nOwn int
	used bool

	// ownWords mirrors owns as a packed bitset (bit u set iff owns[u]),
	// maintained on every transfer. runScreened hands it to NextOwned.
	ownWords []uint64

	// Recycled storage, sized for the largest N seen so far. origins[i]
	// is node i's provenance set: MergeInto unions sets in place, so the
	// n sets allocated here are the only ones the engine ever creates.
	// Non-full provenance modes leave the sets untouched (and, until a
	// full-mode run at that size happens, unallocated).
	origins     []*bitset.Set
	stateBuf    []any
	defPayloads []float64
	emptyKnow   *knowledge.Bundle
	// batch is the reusable BatchAdversary drain buffer, allocated on
	// the first batched run and recycled across Resets.
	batch []seq.Interaction

	// arena is the block the current word-backed state was carved from
	// (nil = ordinary heap allocations). Tracked so Reset can tell a
	// recyclable carve (same arena, same shape: the deterministic carve
	// order re-yields the exact same sub-slices) from a layout change
	// that must re-wrap or re-allocate.
	arena *Arena

	// str holds push-mode (Begin/Feed/Finish) execution state; see
	// stream.go.
	str stream
}

// NewEngine validates cfg and prepares an execution.
func NewEngine(cfg Config) (*Engine, error) {
	e := &Engine{}
	if err := e.Reset(cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-arms the engine for a new run under cfg, reusing the previous
// run's slices, per-node provenance bitsets, and default payloads whenever
// the node count allows, so steady-state sweep loops allocate nothing.
//
// Reset recycles the provenance sets a previous run handed out through
// Result.SinkValue: callers that keep a Result across a Reset must read
// (or clone) its Origins before resetting.
func (e *Engine) Reset(cfg Config) error {
	if cfg.N < 2 {
		return fmt.Errorf("core: need at least 2 nodes, got %d", cfg.N)
	}
	if cfg.Sink < 0 || int(cfg.Sink) >= cfg.N {
		return fmt.Errorf("core: sink %d out of range [0,%d)", cfg.Sink, cfg.N)
	}
	if cfg.MaxInteractions <= 0 {
		return fmt.Errorf("core: MaxInteractions must be positive, got %d", cfg.MaxInteractions)
	}
	switch cfg.Provenance {
	case ProvenanceFull, ProvenanceCount, ProvenanceOff:
	default:
		return fmt.Errorf("core: invalid provenance mode %v", cfg.Provenance)
	}
	if cfg.Agg == nil {
		cfg.Agg = agg.Min
	}
	if cfg.Payloads == nil {
		if len(e.defPayloads) != cfg.N {
			e.defPayloads = make([]float64, cfg.N)
			for i := range e.defPayloads {
				e.defPayloads[i] = float64(i)
			}
		}
		cfg.Payloads = e.defPayloads
	}
	if len(cfg.Payloads) != cfg.N {
		return fmt.Errorf("core: %d payloads for %d nodes", len(cfg.Payloads), cfg.N)
	}
	know := cfg.Know
	if know == nil {
		if e.emptyKnow == nil {
			var err error
			e.emptyKnow, err = knowledge.NewBundle()
			if err != nil {
				return err
			}
		}
		know = e.emptyKnow
	}

	ar := cfg.Arena
	if ar != nil {
		if !ar.fits(cfg.N, cfg.Provenance) {
			return fmt.Errorf("core: arena shaped for (n=%d, %s), config wants (n=%d, %s)",
				ar.n, ar.mode, cfg.N, cfg.Provenance)
		}
		ar.reset()
	}

	if cap(e.owns) < cfg.N {
		e.owns = make([]bool, cfg.N)
		e.data = make([]agg.Value, cfg.N)
		e.origins = make([]*bitset.Set, cfg.N)
		e.stateBuf = make([]any, cfg.N)
	}
	nw := bitset.WordsFor(cfg.N)
	if ar != nil {
		e.ownWords = ar.take(nw)
	} else {
		if cap(e.ownWords) < nw || e.arena != nil {
			e.ownWords = make([]uint64, nw)
		}
		e.ownWords = e.ownWords[:nw]
	}
	for i := range e.ownWords {
		e.ownWords[i] = ^uint64(0)
	}
	if tail := uint(cfg.N % 64); tail != 0 {
		e.ownWords[nw-1] = (1 << tail) - 1
	}
	e.owns = e.owns[:cfg.N]
	e.data = e.data[:cfg.N]
	e.origins = e.origins[:cfg.N]
	e.stateBuf = e.stateBuf[:cfg.N]
	if e.env == nil {
		e.env = &Env{}
	}
	e.env.N = cfg.N
	e.env.Sink = cfg.Sink
	e.env.Know = know
	e.env.State = e.stateBuf

	full := cfg.Provenance == ProvenanceFull
	for u := 0; u < cfg.N; u++ {
		var set *bitset.Set
		if full {
			set = e.origins[u]
			if ar != nil {
				// Carving is deterministic (ownWords, then origins in
				// node order), so a set wrapped on the previous Reset of
				// the same arena already aliases exactly these words.
				words := ar.take(nw)
				if set == nil || set.Cap() != cfg.N || e.arena != ar {
					set = bitset.FromWords(cfg.N, words)
					e.origins[u] = set
				}
				set.Clear()
			} else if set == nil || set.Cap() != cfg.N || e.arena != nil {
				set = bitset.New(cfg.N)
				e.origins[u] = set
			} else {
				set.Clear()
			}
			set.Add(u)
		}
		e.owns[u] = true
		e.data[u] = agg.Value{Num: cfg.Payloads[u], Count: 1, Origins: set}
		e.stateBuf[u] = nil
	}
	e.cfg = cfg
	e.arena = ar
	e.nOwn = cfg.N
	e.used = false
	e.str = stream{}
	return nil
}

// N returns the node count.
func (e *Engine) N() int { return e.cfg.N }

// Sink returns the sink node.
func (e *Engine) Sink() graph.NodeID { return e.cfg.Sink }

// Owns reports whether u currently owns data.
func (e *Engine) Owns(u graph.NodeID) bool {
	if u < 0 || int(u) >= e.cfg.N {
		return false
	}
	return e.owns[u]
}

// OwnerCount returns the number of nodes owning data.
func (e *Engine) OwnerCount() int { return e.nOwn }

// Env exposes the environment, mainly for tests and the concurrent
// runtime, which shares algorithm state representation with the engine.
func (e *Engine) Env() *Env { return e.env }

// batchSize is the engine's drain-buffer length for BatchAdversary
// sources: large enough to amortise the per-batch dispatch to noise,
// small enough (8 KB) to stay resident in L1.
const batchSize = 512

// Run executes alg against adv until termination, sequence exhaustion,
// failure, or the interaction cap. The returned error reports engine or
// model violations (nil algorithm, transfers between non-owners, double
// aggregation); normal non-termination is not an error.
//
// The adversary's type alone picks the drain path: a ScreenedAdversary
// hands over only interactions between two data owners (unless the
// algorithm is an Observer or an EventSink is attached), a
// BatchAdversary is drained through a reusable buffer, any other
// adversary (every adaptive one) one Next call per interaction. The paths
// produce identical Results; differential tests get the batched
// reference by hiding NextOwned behind a wrapper that embeds only
// BatchAdversary, and the one-at-a-time reference behind one that
// embeds only Adversary.
func (e *Engine) Run(alg Algorithm, adv Adversary) (Result, error) {
	if alg == nil || adv == nil {
		return Result{}, fmt.Errorf("core: nil algorithm or adversary")
	}
	if e.used {
		return Result{}, fmt.Errorf("core: engine already ran; Reset it (or create a new one) first")
	}
	e.used = true

	// D∅ODA algorithms must not use node memory: deny them the State
	// slice so an accidental write fails loudly instead of silently
	// breaking the obliviousness claim.
	if alg.Oblivious() {
		e.env.State = nil
	}

	if err := alg.Setup(e.env); err != nil {
		return Result{}, fmt.Errorf("core: setup of %s: %w", alg.Name(), err)
	}

	res := Result{
		Algorithm: alg.Name(),
		Adversary: adv.Name(),
		Duration:  -1,
	}

	var err error
	switch a := adv.(type) {
	case ScreenedAdversary:
		if _, observes := alg.(Observer); observes || e.cfg.Events != nil || a.N() != e.cfg.N {
			err = e.runBatched(alg, a, &res)
		} else {
			err = e.runScreened(alg, a, &res)
		}
	case BatchAdversary:
		err = e.runBatched(alg, a, &res)
	default:
		err = e.runScalar(alg, adv, &res)
	}
	if err != nil {
		return res, err
	}

	if res.Terminated {
		res.SinkValue = e.data[e.cfg.Sink]
		if err := e.verify(res); err != nil {
			return res, err
		}
	}
	if e.cfg.Events != nil {
		e.cfg.Events.OnDone(res)
	}
	return res, nil
}

// runScalar is the one-Next-call-per-interaction loop, the only path
// adaptive adversaries can use (they need the post-interaction view).
func (e *Engine) runScalar(alg Algorithm, adv Adversary, res *Result) error {
	observer, observes := alg.(Observer)
	events := e.cfg.Events
	for t := 0; t < e.cfg.MaxInteractions; t++ {
		it, ok := adv.Next(t, e)
		if !ok {
			return nil // adversary exhausted its (finite) sequence
		}
		canon, ok := seq.Canon(it, e.cfg.N)
		if !ok {
			return fmt.Errorf("core: adversary %s at t=%d: %w", adv.Name(), t, seq.CanonError(it))
		}
		res.Interactions++
		if !e.plays(canon, observes, events) {
			continue
		}
		done, err := e.step(alg, observer, observes, events, canon, t, res)
		if err != nil || done {
			return err
		}
	}
	return nil
}

// runBatched drains the adversary through e.batch: one drain call and one
// canonicalisation sweep per batchSize interactions, instead of an
// interface dispatch plus a validating call per interaction.
func (e *Engine) runBatched(alg Algorithm, adv BatchAdversary, res *Result) error {
	observer, observes := alg.(Observer)
	events := e.cfg.Events
	if len(e.batch) == 0 {
		e.batch = make([]seq.Interaction, batchSize)
	}
	n := e.cfg.N
	for t := 0; t < e.cfg.MaxInteractions; {
		want := len(e.batch)
		if rem := e.cfg.MaxInteractions - t; rem < want {
			want = rem
		}
		got := adv.NextBatch(t, e, e.batch[:want])
		if got < 0 || got > want {
			return fmt.Errorf("core: adversary %s returned %d interactions for a %d-slot batch", adv.Name(), got, want)
		}
		for i := 0; i < got; i++ {
			canon, ok := seq.Canon(e.batch[i], n)
			if !ok {
				return fmt.Errorf("core: adversary %s at t=%d: %w", adv.Name(), t+i, seq.CanonError(e.batch[i]))
			}
			res.Interactions++
			if !e.plays(canon, observes, events) {
				continue
			}
			done, err := e.step(alg, observer, observes, events, canon, t+i, res)
			if err != nil || done {
				return err
			}
		}
		if got < want {
			return nil // adversary exhausted its (finite) sequence
		}
		t += got
	}
	return nil
}

// runScreened asks a ScreenedAdversary for one interaction between two
// data owners at a time, so the interactions Engine.plays would skip
// never reach the engine; it counts them in Interactions all the same.
// It runs only for a non-Observer algorithm with no EventSink, where
// playing exactly the owner pairs gives the batched path's Result. The
// adversary vouches for the interactions it skips; the engine checks the
// one it is handed: canonical, in range, timed inside the span it asked
// for, and between two owners.
func (e *Engine) runScreened(alg Algorithm, adv ScreenedAdversary, res *Result) error {
	n := e.cfg.N
	for t := 0; t < e.cfg.MaxInteractions; {
		span := e.cfg.MaxInteractions - t
		it, at, ok := adv.NextOwned(t, span, e.ownWords)
		if !ok {
			res.Interactions += span
			return nil
		}
		if canon, valid := seq.Canon(it, n); !valid || canon != it {
			return fmt.Errorf("core: adversary %s at t=%d: interaction %v is not a canonical pair of [0,%d)", adv.Name(), at, it, n)
		}
		if at < t || at >= t+span {
			return fmt.Errorf("core: adversary %s returned t=%d for the span [%d,%d)", adv.Name(), at, t, t+span)
		}
		if !e.owns[it.U] || !e.owns[it.V] {
			return fmt.Errorf("core: adversary %s at t=%d: interaction %v is not between two data owners", adv.Name(), at, it)
		}
		res.Interactions += at + 1 - t
		done, err := e.step(alg, nil, false, nil, it, at, res)
		if err != nil || done {
			return err
		}
		t = at + 1
	}
	return nil
}

// plays reports whether step must play the canonical interaction canon:
// the rule the scalar and batched loops and Feed share, so they cannot
// drift. An interaction whose endpoints do not both own data reaches no
// Decide and changes no ownership, datum or counter but Interactions,
// which the loops count themselves; and it cannot end the run, since the
// step before it left the run going. Only an Observer, which sees every
// interaction, or an EventSink, which records it, needs step for it.
// The sim's scheduler skips the same interactions (see its prescreenBoth).
func (e *Engine) plays(canon seq.Interaction, observes bool, events EventSink) bool {
	return e.owns[canon.U] && e.owns[canon.V] || observes || events != nil
}

// step plays one canonical, range-checked interaction — the shared body
// of the scalar and batched loops and of Feed, so the paths cannot
// drift. It returns done = true when the run is over (termination or
// failure).
func (e *Engine) step(alg Algorithm, observer Observer, observes bool, events EventSink, canon seq.Interaction, t int, res *Result) (bool, error) {
	if observes {
		observer.Observe(e.env, canon, t)
	}

	ev := Event{T: t, It: canon}
	if e.owns[canon.U] && e.owns[canon.V] {
		ev.BothOwned = true
		d := alg.Decide(e.env, canon, t)
		ev.Decision = d
		if receiver, transfer := d.Receiver(canon); transfer {
			sender, _ := d.Sender(canon)
			if err := agg.MergeInto(e.cfg.Agg, &e.data[receiver], e.data[sender]); err != nil {
				return false, fmt.Errorf("core: t=%d transfer %d->%d: %w", t, sender, receiver, err)
			}
			e.data[sender] = agg.Value{}
			e.owns[sender] = false
			bitset.ClearWordBit(e.ownWords, int(sender))
			e.nOwn--
			res.Transmissions++
			res.LastGap = t - res.Duration - 1
			res.Duration = t
			ev.Sender, ev.Receiver = sender, receiver
		} else {
			res.Declined++
		}
	}
	if events != nil {
		events.OnEvent(ev)
	}

	if !e.owns[e.cfg.Sink] {
		res.Failed = true
		res.FailReason = fmt.Sprintf("sink %d transmitted its data at t=%d and can never terminate", e.cfg.Sink, t)
		return true, nil
	}
	if e.nOwn == 1 {
		res.Terminated = true
		return true, nil
	}
	return false, nil
}

// verify checks the end-to-end aggregation invariants on termination, to
// the depth the configured provenance mode still supports.
func (e *Engine) verify(res Result) error {
	if e.cfg.Provenance == ProvenanceOff {
		return nil
	}
	v := res.SinkValue
	if v.Count != e.cfg.N {
		return fmt.Errorf("core: sink aggregated %d data, want %d", v.Count, e.cfg.N)
	}
	if e.cfg.Provenance == ProvenanceFull && (v.Origins == nil || !v.Origins.Full()) {
		return fmt.Errorf("core: sink provenance %v incomplete", v.Origins)
	}
	if res.Transmissions != e.cfg.N-1 {
		return fmt.Errorf("core: %d transmissions for %d nodes, want %d",
			res.Transmissions, e.cfg.N, e.cfg.N-1)
	}
	if e.cfg.VerifyAggregate {
		want, err := agg.FoldAll(e.cfg.Agg, e.cfg.Payloads)
		if err != nil {
			return err
		}
		// Tolerate float re-association error: the transmission order is
		// not the fold order, so sums of floats may differ in the last
		// bits.
		tol := 1e-9 * (math.Abs(want) + 1)
		if math.Abs(v.Num-want) > tol {
			return fmt.Errorf("core: sink payload %v, want %v (%s over initial data)",
				v.Num, want, e.cfg.Agg.Name())
		}
	}
	return nil
}

// RunOnce is a convenience wrapper: build an engine from cfg and run.
func RunOnce(cfg Config, alg Algorithm, adv Adversary) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(alg, adv)
}
