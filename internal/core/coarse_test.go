package core

// Tests for the coarse-state batching contract and the word-parallel
// ownership prescreen: the coarse drain must be observationally
// identical to the scalar path for any pure CoarseBatchAdversary
// (results, errors, partial progress, exhaustion), PrescreenBoth must
// agree with the naive both-own check, and the engine's OwnerWords
// mirror must track owns exactly through a run.

import (
	"fmt"
	"testing"

	"doda/internal/bitset"
	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// mix64 is the splitmix64 finalizer: the hash coarse test adversaries use
// to derive per-t randomness purely from (seed, t).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// coarseOwnersAdv picks a pseudo-random pair of current owners — a pure
// function of (seed, t, ownership words), so it may implement
// CoarseBatchAdversary. limit > 0 bounds the sequence (exhaustion tests);
// badAt >= 0 emits an invalid interaction at that time (error parity
// tests).
type coarseOwnersAdv struct {
	seed  uint64
	limit int
	badAt int
}

func (coarseOwnersAdv) Name() string { return "coarse-owners" }

func (a coarseOwnersAdv) pick(t, nOwn int, words []uint64) (seq.Interaction, bool) {
	if a.limit > 0 && t >= a.limit {
		return seq.Interaction{}, false
	}
	if a.badAt >= 0 && t == a.badAt {
		return seq.Interaction{U: 5, V: 5}, true
	}
	if nOwn < 2 {
		return seq.Interaction{}, false
	}
	h := mix64(a.seed ^ uint64(t)*0x9e3779b97f4a7c15)
	i := int(h % uint64(nOwn))
	j := int((h >> 32) % uint64(nOwn-1))
	if j >= i {
		j++
	}
	u := bitset.SelectWord(words, i)
	v := bitset.SelectWord(words, j)
	return seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)}, true
}

func (a coarseOwnersAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	wv := view.(WordView)
	return a.pick(t, wv.OwnerCount(), wv.OwnerWords())
}

func (a coarseOwnersAdv) NextCoarseBatch(t int, view WordView, buf []seq.Interaction) int {
	nOwn, words := view.OwnerCount(), view.OwnerWords()
	k := 0
	for ; k < len(buf); k++ {
		it, ok := a.pick(t+k, nOwn, words)
		if !ok {
			break
		}
		buf[k] = it
	}
	return k
}

// runCoarseAndScalar plays the same coarse adversary through the coarse
// and scalar paths and returns (coarse, scalar) along with any errors.
func runCoarseAndScalar(t *testing.T, cfg Config, alg Algorithm, adv coarseOwnersAdv) (Result, Result, error, error) {
	t.Helper()
	var out [2]Result
	var errs [2]error
	for i, disable := range []bool{false, true} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i], errs[i] = eng.Run(alg, hideBatch(disable, adv))
	}
	return out[0], out[1], errs[0], errs[1]
}

// TestCoarseMatchesScalar is the differential gate for the coarse path:
// identical Results across sizes spanning sub-batch to multi-batch runs
// and all provenance modes, for both a terminating (gathering) and a
// never-transferring workload.
func TestCoarseMatchesScalar(t *testing.T) {
	for _, n := range []int{4, 16, 65, 192} {
		for _, mode := range []ProvenanceMode{ProvenanceFull, ProvenanceCount, ProvenanceOff} {
			cfg := Config{
				N: n, MaxInteractions: 400*n*n + 4000,
				VerifyAggregate: true, Provenance: mode,
			}
			adv := coarseOwnersAdv{seed: uint64(n)*13 + uint64(mode), badAt: -1}
			label := fmt.Sprintf("n=%d prov=%v", n, mode)

			coarse, scalar, errC, errS := runCoarseAndScalar(t, cfg, gatherAlg{}, adv)
			if errC != nil || errS != nil {
				t.Fatalf("%s: %v / %v", label, errC, errS)
			}
			sameResult(t, label, coarse, scalar)
			if !coarse.Terminated {
				t.Errorf("%s: gathering over owner pairs must terminate", label)
			}
			// Every emitted pair both-owns, so n-1 transmissions happen in
			// exactly n-1 interactions.
			if coarse.Interactions != n-1 {
				t.Errorf("%s: %d interactions, want %d", label, coarse.Interactions, n-1)
			}
		}
	}

	// waitAlg never transfers: the coarse batches are never invalidated
	// and the run must consume exactly the cap through both paths.
	for _, cap := range []int{1, batchSize - 1, batchSize, batchSize + 1, 3*batchSize + 17} {
		cfg := Config{N: 48, MaxInteractions: cap}
		adv := coarseOwnersAdv{seed: 5, badAt: -1}
		coarse, scalar, errC, errS := runCoarseAndScalar(t, cfg, waitAlg{}, adv)
		if errC != nil || errS != nil {
			t.Fatalf("cap=%d: %v / %v", cap, errC, errS)
		}
		sameResult(t, fmt.Sprintf("cap=%d", cap), coarse, scalar)
		if coarse.Interactions != cap {
			t.Errorf("cap=%d: consumed %d", cap, coarse.Interactions)
		}
	}
}

// TestCoarseExhaustionMatchesScalar ends the sequence at every offset
// relative to the batch size, through both paths.
func TestCoarseExhaustionMatchesScalar(t *testing.T) {
	for _, limit := range []int{1, batchSize - 1, batchSize, batchSize + 3} {
		cfg := Config{N: 64, MaxInteractions: 1 << 20}
		adv := coarseOwnersAdv{seed: 9, limit: limit, badAt: -1}
		coarse, scalar, errC, errS := runCoarseAndScalar(t, cfg, waitAlg{}, adv)
		if errC != nil || errS != nil {
			t.Fatalf("limit=%d: %v / %v", limit, errC, errS)
		}
		sameResult(t, fmt.Sprintf("limit=%d", limit), coarse, scalar)
		if coarse.Interactions != limit {
			t.Errorf("limit=%d: consumed %d", limit, coarse.Interactions)
		}
	}
}

// stateBoundAdv emits {0,1} while t < 3 under full ownership, and {0,2}
// while t < 6 once any transfer has happened — a pure function of
// (t, owner count) whose *exhaustion point moves* when ownership changes.
type stateBoundAdv struct{}

func (stateBoundAdv) Name() string { return "state-bound" }
func (a stateBoundAdv) pick(t, n, nOwn int) (seq.Interaction, bool) {
	if nOwn == n {
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
func (a stateBoundAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	return a.pick(t, view.N(), view.OwnerCount())
}
func (a stateBoundAdv) NextCoarseBatch(t int, view WordView, buf []seq.Interaction) int {
	k := 0
	for ; k < len(buf); k++ {
		it, ok := a.pick(t+k, view.N(), view.OwnerCount())
		if !ok {
			break
		}
		buf[k] = it
	}
	return k
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

// TestCoarseExhaustionAfterFinalTransfer pins the trickiest coarse
// window: the adversary declares exhaustion (short batch), but the
// ownership change lands on that batch's *last* interaction, so the
// exhaustion claim was made under dead state. The engine must re-drain
// instead of stopping — the scalar path keeps going.
func TestCoarseExhaustionAfterFinalTransfer(t *testing.T) {
	for _, disable := range []bool{false, true} {
		eng, err := NewEngine(Config{N: 8, MaxInteractions: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(transferAtAlg{at: 2}, hideBatch(disable, stateBoundAdv{}))
		if err != nil {
			t.Fatal(err)
		}
		// Scalar: t=0,1 declined {0,1}; t=2 transfer 1->0; then the bound
		// moves to 6: t=3,4,5 declined {0,2}; exhausted at t=6.
		if res.Interactions != 6 || res.Transmissions != 1 || res.Declined != 5 {
			t.Errorf("disable=%v: %+v", disable, res)
		}
	}
}

// TestCoarseErrorParity demands the exact error and partial progress of
// the scalar path when the adversary emits an invalid interaction.
func TestCoarseErrorParity(t *testing.T) {
	for _, at := range []int{0, 7, batchSize, batchSize + 5} {
		cfg := Config{N: 16, MaxInteractions: 1 << 20}
		adv := coarseOwnersAdv{seed: 3, badAt: at}
		coarse, scalar, errC, errS := runCoarseAndScalar(t, cfg, waitAlg{}, adv)
		if errC == nil || errS == nil {
			t.Fatalf("at=%d: expected errors, got %v / %v", at, errC, errS)
		}
		if errC.Error() != errS.Error() {
			t.Errorf("at=%d: coarse error %q != scalar %q", at, errC, errS)
		}
		if coarse.Interactions != at || scalar.Interactions != at {
			t.Errorf("at=%d: consumed %d coarse / %d scalar", at, coarse.Interactions, scalar.Interactions)
		}
	}
}

// TestCoarseSteadyStateZeroAllocs extends the zero-allocation gate to the
// coarse path.
func TestCoarseSteadyStateZeroAllocs(t *testing.T) {
	const n = 32
	cfg := Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Box the adversary once: passing the struct value directly would
	// charge one interface-conversion allocation to every run.
	var adv Adversary = coarseOwnersAdv{seed: 7, badAt: -1}
	allocs := testing.AllocsPerRun(20, func() {
		if err := eng.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(gatherAlg{}, adv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state coarse run allocates %v objects, want 0", allocs)
	}
}

// TestBadCoarseCountRejected pins the engine's defence against
// misbehaving NextCoarseBatch implementations.
func TestBadCoarseCountRejected(t *testing.T) {
	for _, over := range []int{batchSize + 1, -1} {
		eng, err := NewEngine(Config{N: 4, MaxInteractions: 10 * batchSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(waitAlg{}, badCoarseAdv{count: over}); err == nil {
			t.Errorf("NextCoarseBatch returning %d should fail", over)
		}
	}
}

type badCoarseAdv struct{ count int }

func (badCoarseAdv) Name() string { return "bad-coarse" }
func (badCoarseAdv) Next(int, ExecView) (seq.Interaction, bool) {
	return seq.Interaction{U: 0, V: 1}, true
}
func (a badCoarseAdv) NextCoarseBatch(_ int, _ WordView, buf []seq.Interaction) int {
	for i := range buf {
		buf[i] = seq.Interaction{U: 0, V: 1}
	}
	return a.count
}

// TestPrescreenBoth checks the word-parallel prescreen against the naive
// both-own test across batch lengths straddling word boundaries.
func TestPrescreenBoth(t *testing.T) {
	const n = 130
	src := rng.New(21)
	owns := bitset.New(n)
	for i := 0; i < n; i++ {
		if src.Intn(2) == 0 {
			owns.Add(i)
		}
	}
	words := owns.Words()
	for _, blen := range []int{0, 1, 63, 64, 65, 128, 200} {
		batch := make([]seq.Interaction, blen)
		for i := range batch {
			u, v := src.Pair(n)
			batch[i] = seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)}
		}
		mask := make([]uint64, (blen+63)/64+1)
		mask[len(mask)-1] = ^uint64(0) // canary: must not be touched
		active := PrescreenBoth(words, batch, mask[:(blen+63)/64])
		want := 0
		for i, it := range batch {
			both := owns.Has(int(it.U)) && owns.Has(int(it.V))
			if both {
				want++
			}
			if got := mask[i>>6]&(1<<(uint(i)&63)) != 0; got != both {
				t.Errorf("blen=%d: mask bit %d = %v, want %v", blen, i, got, both)
			}
		}
		if active != want {
			t.Errorf("blen=%d: active = %d, want %d", blen, active, want)
		}
		// Tail bits beyond len(batch) in the last used word must be zero.
		if blen%64 != 0 && blen > 0 {
			last := mask[(blen-1)>>6]
			if last>>(uint(blen)&63) != 0 {
				t.Errorf("blen=%d: tail bits set in %#x", blen, last)
			}
		}
	}
}

// TestOwnerWordsTracksOwns runs a gathering to completion, checking at
// every adversary call that the packed words agree bit-for-bit with the
// boolean ownership view.
func TestOwnerWordsTracksOwns(t *testing.T) {
	const n = 100
	check := checkWordsAdv{inner: coarseOwnersAdv{seed: 17, badAt: -1}, t: t}
	eng, err := NewEngine(Config{N: n, MaxInteractions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(gatherAlg{}, check)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatal("did not terminate")
	}
	// After termination only the sink bit remains.
	if got := bitset.CountWords(eng.OwnerWords()); got != 1 {
		t.Errorf("post-termination OwnerWords count = %d", got)
	}
	if !bitset.TestWord(eng.OwnerWords(), int(eng.Sink())) {
		t.Error("sink bit not set after termination")
	}
}

type checkWordsAdv struct {
	inner coarseOwnersAdv
	t     *testing.T
}

func (checkWordsAdv) Name() string { return "check-words" }
func (a checkWordsAdv) Next(t int, view ExecView) (seq.Interaction, bool) {
	wv := view.(WordView)
	words := wv.OwnerWords()
	if got := bitset.CountWords(words); got != wv.OwnerCount() {
		a.t.Errorf("t=%d: word count %d != OwnerCount %d", t, got, wv.OwnerCount())
	}
	for u := 0; u < wv.N(); u++ {
		if bitset.TestWord(words, u) != wv.Owns(graph.NodeID(u)) {
			a.t.Errorf("t=%d: word bit %d disagrees with Owns", t, u)
		}
	}
	return a.inner.Next(t, view)
}
