package adversary

import (
	"testing"

	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/seq"
)

// TestAdaptiveOwnersCoarseMatchesScalar is the differential gate for the
// adversary's two paths: the engine's coarse-batched drain (with its
// replay-and-discard loop) must produce the same Result as the scalar
// one-Next-per-interaction path.
func TestAdaptiveOwnersCoarseMatchesScalar(t *testing.T) {
	for _, n := range []int{2, 3, 16, 65, 200} {
		for _, mode := range []core.ProvenanceMode{core.ProvenanceFull, core.ProvenanceCount, core.ProvenanceOff} {
			var results [2]core.Result
			for i, disable := range []bool{false, true} {
				cfg := core.Config{
					N: n, MaxInteractions: 4 * n,
					VerifyAggregate: true, Provenance: mode,
				}
				res, err := core.RunOnce(cfg, algorithms.NewGathering(), hideBatch(disable, NewAdaptiveOwners(uint64(n)*3+uint64(mode))))
				if err != nil {
					t.Fatalf("n=%d mode=%v disable=%v: %v", n, mode, disable, err)
				}
				results[i] = res
			}
			coarse, scalar := results[0], results[1]
			if !resEqual(coarse, scalar) {
				t.Errorf("n=%d mode=%v: coarse %+v != scalar %+v", n, mode, coarse, scalar)
			}
			if !coarse.Terminated {
				t.Errorf("n=%d mode=%v: did not terminate", n, mode)
			}
			// Every emitted pair both-owns, so gathering needs exactly
			// n-1 interactions.
			if coarse.Interactions != n-1 {
				t.Errorf("n=%d mode=%v: %d interactions, want %d", n, mode, coarse.Interactions, n-1)
			}
		}
	}
}

// TestAdaptiveOwnersWaitingMatches drives the Waiting algorithm, which
// declines every interaction not involving the sink: most coarse batches
// are consumed deep before a transfer invalidates them, exercising the
// replay-and-discard loop far from the batch boundaries.
func TestAdaptiveOwnersWaitingMatches(t *testing.T) {
	const n = 48
	var results [2]core.Result
	for i, disable := range []bool{false, true} {
		cfg := core.Config{N: n, MaxInteractions: 1 << 20}
		res, err := core.RunOnce(cfg, algorithms.Waiting{}, hideBatch(disable, NewAdaptiveOwners(11)))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if !resEqual(results[0], results[1]) {
		t.Errorf("coarse %+v != scalar %+v", results[0], results[1])
	}
	if !results[0].Terminated || results[0].Declined == 0 {
		t.Errorf("unexpected run shape: %+v", results[0])
	}
}

// nextOnly embeds only core.Adversary, so it hides NextCoarseBatch: the
// engine plays the wrapped adversary one Next call at a time, the
// reference path of the differential tests.
type nextOnly struct{ core.Adversary }

// hideBatch returns adv, or adv wrapped in nextOnly when hide is set.
func hideBatch(hide bool, adv core.Adversary) core.Adversary {
	if hide {
		return nextOnly{adv}
	}
	return adv
}

// resEqual compares every scalar Result field plus the sink value.
func resEqual(a, b core.Result) bool {
	return a.Terminated == b.Terminated && a.Failed == b.Failed &&
		a.FailReason == b.FailReason && a.Duration == b.Duration &&
		a.Interactions == b.Interactions && a.Transmissions == b.Transmissions &&
		a.Declined == b.Declined && a.LastGap == b.LastGap &&
		a.SinkValue.Num == b.SinkValue.Num && a.SinkValue.Count == b.SinkValue.Count
}

// TestAdaptiveOwnersPurity re-drains the same (t, state) twice and at
// varying batch sizes: the emissions must be byte-identical prefixes.
func TestAdaptiveOwnersPurity(t *testing.T) {
	eng, err := core.NewEngine(core.Config{N: 37, MaxInteractions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdaptiveOwners(99)
	big := make([]seq.Interaction, 256)
	if got := a.NextCoarseBatch(5, eng, big); got != len(big) {
		t.Fatalf("NextCoarseBatch = %d", got)
	}
	for _, size := range []int{1, 7, 64, 256} {
		small := make([]seq.Interaction, size)
		if got := a.NextCoarseBatch(5, eng, small); got != size {
			t.Fatalf("size %d: NextCoarseBatch = %d", size, got)
		}
		for i := range small {
			if small[i] != big[i] {
				t.Fatalf("size %d: emission %d = %v, want %v", size, i, small[i], big[i])
			}
		}
	}
}

// TestAdaptiveOwnersFallbackMatchesWordPath runs the rank resolution
// through a plain ExecView (no OwnerWords) and through the engine's word
// view: the emitted pair must be the same set.
func TestAdaptiveOwnersFallbackMatchesWordPath(t *testing.T) {
	v := newFakeView(40, 0)
	for _, u := range []graph.NodeID{3, 7, 20, 39} {
		v.owns[u] = false
	}
	eng, err := core.NewEngine(core.Config{N: 40, MaxInteractions: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Mirror the fake view's ownership into the engine via a restored
	// stream-like trick is overkill; instead compare both against a
	// direct rank walk. The word path is exercised with full ownership.
	a := NewAdaptiveOwners(4)
	for tt := 0; tt < 50; tt++ {
		itWord, ok1 := a.Next(tt, eng)
		itFall, ok2 := a.Next(tt, plainView{eng})
		if !ok1 || !ok2 {
			t.Fatalf("t=%d: not ok (%v, %v)", tt, ok1, ok2)
		}
		if canon(itWord) != canon(itFall) {
			t.Errorf("t=%d: word path %v != fallback %v", tt, itWord, itFall)
		}
		// And on the fake view with holes, the pair must be two distinct
		// owners.
		it, ok := a.Next(tt, v)
		if !ok {
			t.Fatalf("t=%d: fake view not ok", tt)
		}
		if it.U == it.V || !v.owns[it.U] || !v.owns[it.V] {
			t.Errorf("t=%d: pair %v not a distinct owner pair", tt, it)
		}
	}
}

func canon(it seq.Interaction) seq.Interaction {
	if it.U > it.V {
		it.U, it.V = it.V, it.U
	}
	return it
}

// plainView strips the WordView extension off a view, forcing the
// fallback rank scan.
type plainView struct{ inner core.ExecView }

func (p plainView) N() int                   { return p.inner.N() }
func (p plainView) Sink() graph.NodeID       { return p.inner.Sink() }
func (p plainView) Owns(u graph.NodeID) bool { return p.inner.Owns(u) }
func (p plainView) OwnerCount() int          { return p.inner.OwnerCount() }

// TestAdaptiveOwnersExhausted pins the <2 owners behaviour on both paths.
func TestAdaptiveOwnersExhausted(t *testing.T) {
	v := newFakeView(5, 0)
	for u := 1; u < 5; u++ {
		v.owns[u] = false
	}
	a := NewAdaptiveOwners(1)
	if _, ok := a.Next(0, v); ok {
		t.Error("Next with a single owner should report exhaustion")
	}
	eng, err := core.NewEngine(core.Config{N: 2, MaxInteractions: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(algorithms.NewGathering(), a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Interactions != 1 {
		t.Errorf("n=2 run: %+v", res)
	}
}

// TestAdaptiveOwnersUniform sanity-checks the rank distribution: over
// many draws with frozen ownership every pair of 4 owners appears, with
// no pair taking more than half the mass.
func TestAdaptiveOwnersUniform(t *testing.T) {
	eng, err := core.NewEngine(core.Config{N: 4, MaxInteractions: 10})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAdaptiveOwners(123)
	counts := map[seq.Interaction]int{}
	const draws = 6000
	for tt := 0; tt < draws; tt++ {
		it, ok := a.Next(tt, eng)
		if !ok {
			t.Fatal("exhausted")
		}
		counts[canon(it)]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct pairs, want 6: %v", len(counts), counts)
	}
	for it, c := range counts {
		if c > draws/2 {
			t.Errorf("pair %v drew %d of %d", it, c, draws)
		}
	}
}
