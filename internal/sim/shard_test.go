package sim

// Differential acceptance suite for the sharded scheduler: the runtime
// must produce core.Engine's exact Result for every registry scenario,
// every provenance mode, every shard count, observer algorithms, and
// adaptive adversaries played one Next at a time — at sizes large enough
// that node state spans several shards and several ownership words. The
// whole suite runs in CI's race-detector job, which is what certifies
// the slot protocol's release/acquire discipline.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
)

// sameRes compares every scalar Result field plus the sink value.
func sameRes(t *testing.T, label string, a, b core.Result) {
	t.Helper()
	if a.Terminated != b.Terminated || a.Failed != b.Failed ||
		a.FailReason != b.FailReason || a.Duration != b.Duration ||
		a.Interactions != b.Interactions || a.Transmissions != b.Transmissions ||
		a.Declined != b.Declined || a.LastGap != b.LastGap ||
		a.SinkValue.Num != b.SinkValue.Num || a.SinkValue.Count != b.SinkValue.Count {
		t.Errorf("%s: %+v != %+v", label, a, b)
	}
}

// buildWorkload instantiates one registry scenario, writing a small
// contact trace to disk for the trace spec (same shape as the sweep
// package's differential test).
func buildWorkload(t *testing.T, spec scenario.Spec, n int, seed uint64) *scenario.Workload {
	t.Helper()
	params := map[string]string{}
	if spec.Name == "trace" {
		path := filepath.Join(t.TempDir(), "trace.csv")
		var rows bytes.Buffer
		rows.WriteString("time,u,v\n")
		line := 0
		for round := 0; round < 2; round++ {
			for u := 1; u < n-1; u++ {
				fmt.Fprintf(&rows, "%d,%d,%d\n", line, u, u+1)
				line++
			}
		}
		for u := 1; u < n; u++ {
			fmt.Fprintf(&rows, "%d,%d,%d\n", line, 0, u)
			line++
		}
		if err := os.WriteFile(path, rows.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		params["file"] = path
	}
	w, err := spec.Build(n, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSimMatchesEngineEveryRegistryScenario is the tentpole equivalence
// gate: every registered scenario — trace replay included — through the
// engine and the sharded runtime under every provenance mode, at a size
// where ownership spans two bitset words and state spans all shards.
func TestSimMatchesEngineEveryRegistryScenario(t *testing.T) {
	const n = 70
	for _, spec := range scenario.All() {
		for _, mode := range []core.ProvenanceMode{core.ProvenanceFull, core.ProvenanceCount, core.ProvenanceOff} {
			label := fmt.Sprintf("%s/%v", spec.Name, mode)

			we := buildWorkload(t, spec, n, 23)
			cap := scenario.DefaultCap(we.N)
			if b, finite := we.View.Bound(); finite && cap > b {
				cap = b
			}
			engRes, err := core.RunOnce(core.Config{
				N: we.N, MaxInteractions: cap, VerifyAggregate: true, Provenance: mode,
			}, algorithms.NewGathering(), we.Adversary)
			if err != nil {
				t.Fatalf("%s engine: %v", label, err)
			}

			ws := buildWorkload(t, spec, n, 23)
			rt, err := NewRuntime(Config{N: ws.N, MaxInteractions: cap, Provenance: mode, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := rt.Run(algorithms.NewGathering(), ws.Adversary)
			rt.Close()
			if err != nil {
				t.Fatalf("%s sim: %v", label, err)
			}

			if !engRes.Terminated {
				t.Fatalf("%s: engine did not terminate", label)
			}
			sameRes(t, label, engRes, simRes)
		}
	}
}

// TestSimShardCountInvariance pins that the partitioning is invisible:
// one shard (everything local), the auto default, and counts that leave
// shards of uneven sizes all produce the engine's Result.
func TestSimShardCountInvariance(t *testing.T) {
	const n = 70
	const seed = 9
	mkAdv := func() core.Adversary {
		a, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ref, err := core.RunOnce(core.Config{
		N: n, MaxInteractions: 50 * n * n, VerifyAggregate: true,
	}, algorithms.NewGathering(), mkAdv())
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3, 4, 7, 64} {
		rt, err := NewRuntime(Config{N: n, MaxInteractions: 50 * n * n, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(algorithms.NewGathering(), mkAdv())
		rt.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sameRes(t, fmt.Sprintf("shards=%d", shards), ref, res)
	}
}

// TestSimObserverMatchesEngine drives an Observer algorithm
// (future-optimal), whose Observe must see every interaction — the
// prescreen is bypassed and every position dispatches — and whose
// Observe/Decide mutate shared plan state across shard workers.
func TestSimObserverMatchesEngine(t *testing.T) {
	for _, n := range []int{10, 33} {
		const horizon = 50000
		run := func(viaSim bool) core.Result {
			adv, stream, err := adversary.Randomized(n, 33)
			if err != nil {
				t.Fatal(err)
			}
			know, err := knowledge.NewBundle(knowledge.WithFutures(stream.Prefix(horizon)))
			if err != nil {
				t.Fatal(err)
			}
			if viaSim {
				rt, err := NewRuntime(Config{N: n, MaxInteractions: horizon, Know: know, Shards: 4})
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				res, err := rt.Run(algorithms.NewFutureOptimal(horizon), adv)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res, err := core.RunOnce(core.Config{
				N: n, MaxInteractions: horizon, Know: know, VerifyAggregate: true,
			}, algorithms.NewFutureOptimal(horizon), adv)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		eng, sim := run(false), run(true)
		if !eng.Terminated {
			t.Fatalf("n=%d: engine did not terminate: %+v", n, eng)
		}
		sameRes(t, fmt.Sprintf("n=%d", n), eng, sim)
	}
}

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
// ranks drawn from (seed, t) and resolved by a linear scan of Owns. The
// engine and the runtime both play it one Next at a time, each handing
// it its own ownership view.
type ownerPairAdv struct{ seed uint64 }

func (ownerPairAdv) Name() string { return "owner-pairs" }

func (a ownerPairAdv) Next(t int, view core.ExecView) (seq.Interaction, bool) {
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

// TestSimAdaptiveMatchesEngine checks the scheduler's one-Next path
// against the engine's over ownerPairAdv, at a size where node state
// spans several shards: gathering transfers on every interaction, and
// waiting declines most of them.
func TestSimAdaptiveMatchesEngine(t *testing.T) {
	const n = 70
	for _, tc := range []struct {
		name string
		alg  func() core.Algorithm
	}{
		{"gathering", func() core.Algorithm { return algorithms.NewGathering() }},
		{"waiting", func() core.Algorithm { return algorithms.Waiting{} }},
	} {
		eng, err := core.RunOnce(core.Config{
			N: n, MaxInteractions: 1 << 18, VerifyAggregate: true,
		}, tc.alg(), ownerPairAdv{seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !eng.Terminated {
			t.Fatalf("%s: engine did not terminate: %+v", tc.name, eng)
		}
		rt, err := NewRuntime(Config{N: n, MaxInteractions: 1 << 18, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(tc.alg(), ownerPairAdv{seed: 5})
		rt.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sameRes(t, tc.name, eng, res)
	}
}

// stateBoundAdv emits {0,1} while t < 3 under full ownership and {0,2}
// while t < 6 once any transfer happened: an adversary reading only the
// coarse ownership state (the owner count), whose exhaustion point moves
// when ownership changes.
type stateBoundAdv struct{}

func (stateBoundAdv) Name() string { return "state-bound" }
func (stateBoundAdv) Next(t int, view core.ExecView) (seq.Interaction, bool) {
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

func (transferAtAlg) Name() string          { return "transfer-at" }
func (transferAtAlg) Oblivious() bool       { return true }
func (transferAtAlg) Setup(*core.Env) error { return nil }
func (a transferAtAlg) Decide(_ *core.Env, _ seq.Interaction, t int) core.Decision {
	if t == a.at {
		return core.FirstReceives
	}
	return core.NoTransfer
}

// TestSimCoarseExhaustionAfterFinalTransfer pins that the scheduler asks
// again after the transfer that moves stateBoundAdv's end, as
// core.Engine.Run does: the transfer at t=2 is the last interaction the
// full-ownership state allows, and three more follow it.
func TestSimCoarseExhaustionAfterFinalTransfer(t *testing.T) {
	rt, err := NewRuntime(Config{N: 8, MaxInteractions: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(transferAtAlg{at: 2}, stateBoundAdv{})
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions != 6 || res.Transmissions != 1 || res.Declined != 5 {
		t.Errorf("%+v", res)
	}
}

// TestSimSteadyStateZeroAllocs pins the Reset+Run recycling contract:
// once the runtime, its worker fleet and the adversary exist, repeated
// runs allocate nothing — the engine's own steady-state guarantee, now
// matched by the concurrent scheduler.
func TestSimSteadyStateZeroAllocs(t *testing.T) {
	const n = 32
	cfg := Config{N: n, MaxInteractions: 50 * n * n}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	gen, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Hoist the interface conversions: boxing an adversary or algorithm
	// value per run would itself allocate and mask what we measure.
	var adv core.Adversary = gen
	var alg core.Algorithm = algorithms.NewGathering()
	// Warm up: spawn workers, fault in lazily-built buffers.
	if _, err := rt.Run(alg, adv); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := rt.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(alg, adv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Reset+Run allocates %v objects, want 0", allocs)
	}
}

// mkUniform returns the randomized adversary on n nodes drawing from
// seed: the sequence of Generated over seq.UniformGen, which the engine
// plays through NextOwned and the sim through NextBatch.
func mkUniform(t *testing.T, n int, seed uint64) core.Adversary {
	t.Helper()
	a, err := adversary.NewUniform("uniform", n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSimOverUniformEqualsScreenedEngine runs Waiting and Gathering
// against adversary.Uniform on the sim, which drains its NextBatch, and
// on the engine, which asks it for the next pair of data owners: the
// Results must agree, for runs that end and runs the cap ends.
func TestSimOverUniformEqualsScreenedEngine(t *testing.T) {
	for _, n := range []int{2, 3, 63, 64, 65, 512} {
		for _, alg := range []func() core.Algorithm{
			func() core.Algorithm { return algorithms.Waiting{} },
			func() core.Algorithm { return algorithms.NewGathering() },
		} {
			for _, cap := range []int{400*n*n + 4000, n * n / 3} {
				cfg := core.Config{N: n, MaxInteractions: cap, VerifyAggregate: true}
				eng, err := core.RunOnce(cfg, alg(), mkUniform(t, n, uint64(n)))
				if err != nil {
					t.Fatal(err)
				}
				rt, err := NewRuntime(Config{N: n, MaxInteractions: cap})
				if err != nil {
					t.Fatal(err)
				}
				res, err := rt.Run(alg(), mkUniform(t, n, uint64(n)))
				rt.Close()
				if err != nil {
					t.Fatal(err)
				}
				sameRes(t, fmt.Sprintf("n=%d %s cap=%d", n, eng.Algorithm, cap), eng, res)
			}
		}
	}
}

// FuzzSimVsEngine fuzzes the engine/sim differential over seeds, sizes
// and provenance modes — the concurrent mirror of the engine's
// FuzzBatchedVsScalar. It covers both of the sim's paths: the batched
// one, against the engine's batched path and, over adversary.Uniform,
// its screened one; and the one-Next path, over ownerPairAdv, against
// the engine's one-Next path.
func FuzzSimVsEngine(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, modeRaw uint8) {
		n := int(nRaw%120) + 2
		mode := core.ProvenanceMode(modeRaw % 3)
		cap := 400*n*n + 4000
		mkAdv := func() core.Adversary {
			a, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(seed)))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		cfg := core.Config{N: n, MaxInteractions: cap, VerifyAggregate: true, Provenance: mode}
		eng, err := core.RunOnce(cfg, algorithms.NewGathering(), mkAdv())
		if err != nil {
			t.Fatal(err)
		}
		// The same sequence through adversary.Uniform: the engine asks it
		// for owner pairs only, the sim drains its NextBatch.
		screened, err := core.RunOnce(cfg, algorithms.NewGathering(), mkUniform(t, n, seed))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(Config{N: n, MaxInteractions: cap, Provenance: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.Run(algorithms.NewGathering(), mkAdv())
		if err != nil {
			rt.Close()
			t.Fatal(err)
		}
		if err := rt.Reset(Config{N: n, MaxInteractions: cap, Provenance: mode}); err != nil {
			rt.Close()
			t.Fatal(err)
		}
		overUniform, err := rt.Run(algorithms.NewGathering(), mkUniform(t, n, seed))
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed=%d n=%d mode=%v", seed, n, mode)
		sameRes(t, label, eng, res)
		sameRes(t, label+" over adversary.Uniform", screened, overUniform)
		sameRes(t, label+" screened engine", screened, eng)

		// An adaptive adversary: both sides play it one Next at a time.
		for _, alg := range []func() core.Algorithm{
			func() core.Algorithm { return algorithms.NewGathering() },
			func() core.Algorithm { return algorithms.Waiting{} },
		} {
			engNext, err := core.RunOnce(cfg, alg(), ownerPairAdv{seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRuntime(Config{N: n, MaxInteractions: cap, Provenance: mode})
			if err != nil {
				t.Fatal(err)
			}
			simNext, err := rt.Run(alg(), ownerPairAdv{seed: seed})
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			sameRes(t, label+" one Next over "+engNext.Algorithm, engNext, simNext)
		}
	})
}
