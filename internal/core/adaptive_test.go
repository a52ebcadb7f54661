package core

// Tests for the one-Next-per-interaction path, the only one an adaptive
// adversary takes: runs over an adversary that reads the ownership view
// end where the view says they must, a sequence whose end moves with
// ownership is asked again after the transfer that moves it, and the
// packed ownership words the screened path hands out track Owns exactly.

import (
	"fmt"
	"testing"

	"doda/internal/bitset"
	"doda/internal/graph"
	"doda/internal/seq"
)

// mix64 is the splitmix64 finalizer: ownerPairAdv derives its per-t
// randomness from (seed, t) through it.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ownerPairAdv is an adaptive adversary with only a Next method: at each
// t it emits a pseudo-random pair of distinct current data owners, their
// ranks drawn from (seed, t) and resolved by a linear scan of Owns.
type ownerPairAdv struct{ seed uint64 }

func (ownerPairAdv) Name() string { return "owner-pairs" }

func (a ownerPairAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	nOwn := view.OwnerCount()
	if nOwn < 2 {
		return seq.Interaction{}, false
	}
	h := mix64(a.seed ^ uint64(t)*0x9e3779b97f4a7c15)
	i := int(h % uint64(nOwn))
	j := int((h >> 32) % uint64(nOwn-1))
	if j >= i {
		j++
	}
	var it seq.Interaction
	for u, rank := graph.NodeID(0), 0; rank <= max(i, j); u++ {
		if !view.Owns(u) {
			continue
		}
		if rank == i {
			it.U = u
		}
		if rank == j {
			it.V = u
		}
		rank++
	}
	return it, true
}

// TestAdaptiveOwnerPairsOneNext plays ownerPairAdv one Next at a time
// across sizes spanning one to several ownership words and all provenance
// modes: every pair it emits is between two owners, so gathering ends in
// exactly n-1 interactions, and an algorithm that never transfers
// consumes exactly the cap, on both sides of every batch boundary.
func TestAdaptiveOwnerPairsOneNext(t *testing.T) {
	for _, n := range []int{4, 16, 65, 192} {
		for _, mode := range []ProvenanceMode{ProvenanceFull, ProvenanceCount, ProvenanceOff} {
			label := fmt.Sprintf("n=%d prov=%v", n, mode)
			res, err := RunOnce(Config{
				N: n, MaxInteractions: 400*n*n + 4000,
				VerifyAggregate: true, Provenance: mode,
			}, gatherAlg{}, ownerPairAdv{seed: uint64(n)*13 + uint64(mode)})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Terminated || res.Interactions != n-1 || res.Transmissions != n-1 {
				t.Errorf("%s: %+v, want termination in %d interactions", label, res, n-1)
			}
		}
	}
	for _, cap := range []int{1, batchSize - 1, batchSize, batchSize + 1, 3*batchSize + 17} {
		res, err := RunOnce(Config{N: 48, MaxInteractions: cap}, waitAlg{}, ownerPairAdv{seed: 5})
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if res.Terminated || res.Interactions != cap || res.Declined != cap {
			t.Errorf("cap=%d: %+v", cap, res)
		}
	}
}

// stateBoundAdv emits {0,1} while t < 3 under full ownership, and {0,2}
// while t < 6 once any transfer has happened: an adversary reading only
// the coarse ownership state (the owner count), whose exhaustion point
// moves when ownership changes.
type stateBoundAdv struct{}

func (stateBoundAdv) Name() string { return "state-bound" }
func (stateBoundAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	if view.OwnerCount() == view.N() {
		if t >= 3 {
			return seq.Interaction{}, false
		}
		return seq.Interaction{U: 0, V: 1}, true
	}
	if t >= 6 {
		return seq.Interaction{}, false
	}
	return seq.Interaction{U: 0, V: 2}, true
}

// transferAtAlg transfers to the first endpoint exactly at time `at`.
type transferAtAlg struct{ at int }

func (transferAtAlg) Name() string     { return "transfer-at" }
func (transferAtAlg) Oblivious() bool  { return true }
func (transferAtAlg) Setup(*Env) error { return nil }
func (a transferAtAlg) Decide(_ *Env, _ seq.Interaction, t int) Decision {
	if t == a.at {
		return FirstReceives
	}
	return NoTransfer
}

// TestCoarseExhaustionAfterFinalTransfer pins that the engine asks again
// after the transfer that moves stateBoundAdv's end: the transfer at t=2
// is the last interaction the full-ownership state allows, and the
// adversary then emits three more before it is exhausted.
func TestCoarseExhaustionAfterFinalTransfer(t *testing.T) {
	res, err := RunOnce(Config{N: 8, MaxInteractions: 1 << 20}, transferAtAlg{at: 2}, stateBoundAdv{})
	if err != nil {
		t.Fatal(err)
	}
	// t=0,1 declined {0,1}; t=2 transfer 1->0; then the bound moves to 6:
	// t=3,4,5 declined {0,2}; exhausted at t=6.
	if res.Interactions != 6 || res.Transmissions != 1 || res.Declined != 5 {
		t.Errorf("%+v", res)
	}
}

// TestOwnWordsTracksOwns runs a gathering to completion, checking at
// every adversary call that the engine's packed ownership words agree
// bit for bit with the boolean ownership view.
func TestOwnWordsTracksOwns(t *testing.T) {
	const n = 100
	eng, err := NewEngine(Config{N: n, MaxInteractions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(gatherAlg{}, checkWordsAdv{inner: ownerPairAdv{seed: 17}, t: t})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	// After termination only the sink bit remains.
	if got := bitset.CountWords(eng.ownWords); got != 1 {
		t.Errorf("post-termination word count = %d", got)
	}
	if !bitset.TestWord(eng.ownWords, int(eng.Sink())) {
		t.Error("sink bit not set after termination")
	}
}

type checkWordsAdv struct {
	inner ownerPairAdv
	t     *testing.T
}

func (checkWordsAdv) Name() string { return "check-words" }
func (a checkWordsAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	words := view.(*Engine).ownWords
	if got := bitset.CountWords(words); got != view.OwnerCount() {
		a.t.Errorf("t=%d: word count %d != OwnerCount %d", t, got, view.OwnerCount())
	}
	for u := 0; u < view.N(); u++ {
		if bitset.TestWord(words, u) != view.Owns(graph.NodeID(u)) {
			a.t.Errorf("t=%d: word bit %d disagrees with Owns", t, u)
		}
	}
	return a.inner.Next(t, view)
}
