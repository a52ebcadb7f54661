package sim

import (
	"runtime"
	"testing"
	"time"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/bitset"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/seq"
)

func TestRuntimeValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{name: "too few nodes", cfg: Config{N: 1, MaxInteractions: 5}},
		{name: "bad sink", cfg: Config{N: 3, Sink: 9, MaxInteractions: 5}},
		{name: "no cap", cfg: Config{N: 3}},
		{name: "payload mismatch", cfg: Config{N: 3, MaxInteractions: 5, Payloads: []float64{1, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRuntime(tt.cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRuntimeSingleUse(t *testing.T) {
	rt, err := NewRuntime(Config{N: 3, MaxInteractions: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	s, _ := seq.NewSequence(3, []seq.Interaction{{U: 1, V: 2}})
	adv, _ := adversary.NewOblivious("seq", s)
	if _, err := rt.Run(algorithms.Waiting{}, adv); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(algorithms.Waiting{}, adv); err == nil {
		t.Error("second Run should fail")
	}
}

func TestRuntimeNilParticipants(t *testing.T) {
	rt, err := NewRuntime(Config{N: 3, MaxInteractions: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Run(nil, nil); err == nil {
		t.Error("want error")
	}
}

func TestRuntimeGatheringTerminates(t *testing.T) {
	adv, _, err := adversary.Randomized(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{N: 8, MaxInteractions: 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(algorithms.NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
	if res.Transmissions != 7 {
		t.Errorf("transmissions = %d", res.Transmissions)
	}
	if res.SinkValue.Count != 8 || !res.SinkValue.Origins.Full() {
		t.Errorf("sink value = %+v", res.SinkValue)
	}
}

func TestRuntimeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		adv, _, err := adversary.Randomized(6, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(Config{N: 6, MaxInteractions: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(algorithms.NewGathering(), adv); err != nil {
			t.Fatal(err)
		}
		rt.Close()
	}
	// Give exited goroutines a moment to be reaped by the scheduler.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

// equivalence runs the same algorithm/adversary/seed in both the
// sequential engine and the concurrent runtime and compares results.
func equivalence(t *testing.T, n int, seed uint64, mkAlg func() core.Algorithm, know func(st *seq.Stream) *knowledge.Bundle) {
	t.Helper()
	advA, streamA, err := adversary.Randomized(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	advB, streamB, err := adversary.Randomized(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cap := 50 * n * n

	var knowA, knowB *knowledge.Bundle
	if know != nil {
		knowA, knowB = know(streamA), know(streamB)
	}

	engineRes, err := core.RunOnce(core.Config{
		N: n, MaxInteractions: cap, Know: knowA, VerifyAggregate: true,
	}, mkAlg(), advA)
	if err != nil {
		t.Fatal(err)
	}

	rt, err := NewRuntime(Config{N: n, MaxInteractions: cap, Know: knowB})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	simRes, err := rt.Run(mkAlg(), advB)
	if err != nil {
		t.Fatal(err)
	}

	if engineRes.Terminated != simRes.Terminated ||
		engineRes.Duration != simRes.Duration ||
		engineRes.Interactions != simRes.Interactions ||
		engineRes.Transmissions != simRes.Transmissions ||
		engineRes.Declined != simRes.Declined ||
		engineRes.LastGap != simRes.LastGap {
		t.Errorf("engine %+v != sim %+v", engineRes, simRes)
	}
	if engineRes.Terminated && engineRes.SinkValue.Num != simRes.SinkValue.Num {
		t.Errorf("sink payload: engine %v, sim %v", engineRes.SinkValue.Num, simRes.SinkValue.Num)
	}
}

func TestEquivalenceWaiting(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		equivalence(t, 10, seed, func() core.Algorithm { return algorithms.Waiting{} }, nil)
	}
}

func TestEquivalenceGathering(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		equivalence(t, 12, seed, func() core.Algorithm { return algorithms.NewGathering() }, nil)
	}
}

func TestEquivalenceWaitingGreedy(t *testing.T) {
	const n = 12
	for _, seed := range []uint64{7, 8} {
		equivalence(t, n, seed,
			func() core.Algorithm { return algorithms.WaitingGreedy{Tau: algorithms.TauStar(n)} },
			func(st *seq.Stream) *knowledge.Bundle {
				b, err := knowledge.NewBundle(knowledge.WithMeetTime(st, 0, 50*n*n))
				if err != nil {
					t.Fatal(err)
				}
				return b
			})
	}
}

func TestRuntimeAdaptiveAdversary(t *testing.T) {
	// The Theorem 1 adversary must also defeat Gathering under the
	// concurrent runtime: no termination within the cap.
	adv, err := adversary.NewTheorem1(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{N: 3, MaxInteractions: 2000})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(algorithms.NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Errorf("theorem-1 adversary failed to block gathering: %+v", res)
	}
	if res.Interactions != 2000 {
		t.Errorf("interactions = %d", res.Interactions)
	}
}

func TestRuntimeSequenceExhaustion(t *testing.T) {
	s, _ := seq.NewSequence(3, []seq.Interaction{{U: 1, V: 2}})
	adv, _ := adversary.NewOblivious("seq", s)
	rt, err := NewRuntime(Config{N: 3, MaxInteractions: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(algorithms.Waiting{}, adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated || res.Interactions != 1 {
		t.Errorf("res = %+v", res)
	}
}

// nextOnly embeds only core.Adversary, so it hides NextBatch and
// NextOwned: the runtime and the engine play the wrapped adversary one
// Next call at a time. It is the reference path of the differential
// tests.
type nextOnly struct{ core.Adversary }

// hideBatch returns adv, or adv wrapped in nextOnly when hide is set.
func hideBatch(hide bool, adv core.Adversary) core.Adversary {
	if hide {
		return nextOnly{adv}
	}
	return adv
}

// runtimeResult plays one seeded uniform Gathering workload through the
// runtime under the given provenance/batch configuration.
func runtimeResult(t *testing.T, n int, seed uint64, prov core.ProvenanceMode, disableBatch bool) core.Result {
	t.Helper()
	adv, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(seed)))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{
		N: n, MaxInteractions: 50 * n * n,
		Provenance: prov,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(algorithms.NewGathering(), hideBatch(disableBatch, adv))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("n=%d seed=%d: did not terminate", n, seed)
	}
	return res
}

// TestRuntimeBatchedMatchesScalar checks the scheduler's batch drain
// against the per-interaction Next path across provenance modes.
func TestRuntimeBatchedMatchesScalar(t *testing.T) {
	const n = 12
	for _, prov := range []core.ProvenanceMode{core.ProvenanceFull, core.ProvenanceCount, core.ProvenanceOff} {
		for _, seed := range []uint64{1, 2, 3} {
			batched := runtimeResult(t, n, seed, prov, false)
			scalar := runtimeResult(t, n, seed, prov, true)
			if batched.Duration != scalar.Duration || batched.Interactions != scalar.Interactions ||
				batched.Transmissions != scalar.Transmissions || batched.Declined != scalar.Declined ||
				batched.SinkValue.Num != scalar.SinkValue.Num || batched.SinkValue.Count != scalar.SinkValue.Count {
				t.Errorf("prov=%v seed=%d: batched %+v != scalar %+v", prov, seed, batched, scalar)
			}
		}
	}
}

// TestRuntimeProvenanceModes pins the mode semantics in the runtime: the
// execution is identical across modes, full mode carries origins, the
// others do not, and invalid modes are rejected.
func TestRuntimeProvenanceModes(t *testing.T) {
	const n = 10
	full := runtimeResult(t, n, 7, core.ProvenanceFull, false)
	if full.SinkValue.Origins == nil || !full.SinkValue.Origins.Full() {
		t.Errorf("full mode origins = %v", full.SinkValue.Origins)
	}
	for _, prov := range []core.ProvenanceMode{core.ProvenanceCount, core.ProvenanceOff} {
		res := runtimeResult(t, n, 7, prov, false)
		if res.SinkValue.Origins != nil {
			t.Errorf("%v mode leaked origins %v", prov, res.SinkValue.Origins)
		}
		if res.Duration != full.Duration || res.Interactions != full.Interactions ||
			res.SinkValue.Num != full.SinkValue.Num {
			t.Errorf("%v mode changed the execution: %+v vs %+v", prov, res, full)
		}
	}
	if _, err := NewRuntime(Config{N: 4, MaxInteractions: 10, Provenance: core.ProvenanceMode(7)}); err == nil {
		t.Error("invalid provenance mode must be rejected")
	}
}

// TestPrescreenMatchesOwns checks the word-parallel prescreen against the
// naive both-own test across batch lengths straddling word boundaries.
func TestPrescreenMatchesOwns(t *testing.T) {
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
		active := prescreenBoth(words, batch, mask[:(blen+63)/64])
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
		if mask[len(mask)-1] != ^uint64(0) {
			t.Errorf("blen=%d: canary word overwritten", blen)
		}
		// Tail bits beyond len(batch) in the last used word must be zero.
		if blen%64 != 0 {
			last := mask[(blen-1)>>6]
			if last>>(uint(blen)&63) != 0 {
				t.Errorf("blen=%d: tail bits set in %#x", blen, last)
			}
		}
	}
}
