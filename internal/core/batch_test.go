package core

// Tests for the batched interaction pipeline and the provenance modes:
// the batched path must be observationally identical to the scalar path
// (results, errors, partial progress), stay allocation-free in steady
// state, and each provenance mode must keep exactly the verification it
// documents.

import (
	"fmt"
	"strings"
	"testing"

	"doda/internal/agg"
	"doda/internal/rng"
	"doda/internal/seq"
)

// batchGenAdv is genAdv plus NextBatch — the shape every oblivious
// adversary in the repository now has.
type batchGenAdv struct {
	gen func(t int) seq.Interaction
}

func (batchGenAdv) Name() string { return "uniform-gen" }
func (a batchGenAdv) Next(t int, _ ExecView) (seq.Interaction, bool) {
	return a.gen(t), true
}
func (a batchGenAdv) NextBatch(t int, _ ExecView, buf []seq.Interaction) int {
	for i := range buf {
		buf[i] = a.gen(t + i)
	}
	return len(buf)
}

// nextOnly embeds only Adversary, so it hides NextBatch and NextOwned:
// the engine plays the wrapped adversary one Next call at a time. It is
// the reference path of every differential test here.
type nextOnly struct{ Adversary }

// hideBatch returns adv, or adv wrapped in nextOnly when hide is set.
func hideBatch(hide bool, adv Adversary) Adversary {
	if hide {
		return nextOnly{adv}
	}
	return adv
}

// finiteBatchAdv emits a fixed sequence through both paths.
type finiteBatchAdv struct {
	steps []seq.Interaction
}

func (finiteBatchAdv) Name() string { return "finite" }
func (a finiteBatchAdv) Next(t int, _ ExecView) (seq.Interaction, bool) {
	if t >= len(a.steps) {
		return seq.Interaction{}, false
	}
	return a.steps[t], true
}
func (a finiteBatchAdv) NextBatch(t int, _ ExecView, buf []seq.Interaction) int {
	k := 0
	for ; k < len(buf) && t+k < len(a.steps); k++ {
		buf[k] = a.steps[t+k]
	}
	return k
}

// sameResult compares every Result field, including the sink value and
// (when both present) its provenance set.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Adversary != want.Adversary ||
		got.Terminated != want.Terminated || got.Failed != want.Failed ||
		got.FailReason != want.FailReason ||
		got.Duration != want.Duration || got.Interactions != want.Interactions ||
		got.Transmissions != want.Transmissions || got.Declined != want.Declined ||
		got.LastGap != want.LastGap {
		t.Errorf("%s: result %+v != %+v", label, got, want)
	}
	if got.SinkValue.Num != want.SinkValue.Num || got.SinkValue.Count != want.SinkValue.Count {
		t.Errorf("%s: sink value (%v,%d) != (%v,%d)", label,
			got.SinkValue.Num, got.SinkValue.Count, want.SinkValue.Num, want.SinkValue.Count)
	}
	gotO, wantO := got.SinkValue.Origins, want.SinkValue.Origins
	if (gotO == nil) != (wantO == nil) {
		t.Errorf("%s: provenance presence differs: %v vs %v", label, gotO, wantO)
	} else if gotO != nil && !gotO.Equal(wantO) {
		t.Errorf("%s: provenance %v != %v", label, gotO, wantO)
	}
}

// runBatchedAndScalar plays the same seeded workload through both engine
// paths with fresh generators and returns (batched, scalar).
func runBatchedAndScalar(t *testing.T, cfg Config, seed uint64) (Result, Result) {
	t.Helper()
	out := make([]Result, 2)
	for i, disable := range []bool{false, true} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(gatherAlg{}, hideBatch(disable, batchGenAdv{gen: seq.UniformGen(cfg.N, rng.New(seed))}))
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

// TestBatchedMatchesScalar is the core differential gate: identical
// Results from the batched and scalar paths across sizes that exercise
// sub-batch, exact-batch and multi-batch runs, aggregation functions, and
// all three provenance modes.
func TestBatchedMatchesScalar(t *testing.T) {
	for _, n := range []int{4, 16, 65, 192} {
		for _, fu := range []agg.Func{agg.Min, agg.Sum} {
			for _, mode := range []ProvenanceMode{ProvenanceFull, ProvenanceCount, ProvenanceOff} {
				cfg := Config{
					N: n, Agg: fu, MaxInteractions: 400*n*n + 4000,
					VerifyAggregate: true, Provenance: mode,
				}
				batched, scalar := runBatchedAndScalar(t, cfg, uint64(n)*7+uint64(mode))
				label := fmt.Sprintf("n=%d agg=%s prov=%v", n, fu.Name(), mode)
				sameResult(t, label, batched, scalar)
				if !batched.Terminated {
					t.Errorf("%s: did not terminate", label)
				}
				if mode == ProvenanceFull && !batched.SinkValue.Origins.Full() {
					t.Errorf("%s: full mode must report full provenance", label)
				}
				if mode != ProvenanceFull && batched.SinkValue.Origins != nil {
					t.Errorf("%s: non-full mode must not report origins", label)
				}
			}
		}
	}
}

// TestBatchedInteractionCapMidBatch pins the cap semantics: the batched
// loop must consume exactly MaxInteractions even when the cap falls in
// the middle of a batch.
func TestBatchedInteractionCapMidBatch(t *testing.T) {
	const n = 256 // large enough that tiny caps never terminate
	for _, cap := range []int{1, batchSize - 1, batchSize, batchSize + 1, 3*batchSize + 17} {
		cfg := Config{N: n, MaxInteractions: cap}
		batched, scalar := runBatchedAndScalar2(t, cfg, 99)
		if batched.Interactions != cap || scalar.Interactions != cap {
			t.Errorf("cap=%d: consumed %d batched / %d scalar", cap, batched.Interactions, scalar.Interactions)
		}
		sameResult(t, fmt.Sprintf("cap=%d", cap), batched, scalar)
	}
}

// runBatchedAndScalar2 is runBatchedAndScalar without the termination
// requirement (capped runs legitimately stop early).
func runBatchedAndScalar2(t *testing.T, cfg Config, seed uint64) (Result, Result) {
	t.Helper()
	out := make([]Result, 2)
	for i, disable := range []bool{false, true} {
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(waitAlg{}, hideBatch(disable, batchGenAdv{gen: seq.UniformGen(cfg.N, rng.New(seed))}))
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

// waitAlg never transfers, so capped runs never terminate.
type waitAlg struct{}

func (waitAlg) Name() string                               { return "wait" }
func (waitAlg) Oblivious() bool                            { return true }
func (waitAlg) Setup(*Env) error                           { return nil }
func (waitAlg) Decide(*Env, seq.Interaction, int) Decision { return NoTransfer }

// TestBatchedExhaustionMatchesScalar checks finite sequences ending at
// every offset relative to the batch size.
func TestBatchedExhaustionMatchesScalar(t *testing.T) {
	const n = 64
	for _, length := range []int{0, 1, batchSize - 1, batchSize, batchSize + 3} {
		gen := seq.UniformGen(n, rng.New(3))
		steps := make([]seq.Interaction, length)
		for i := range steps {
			steps[i] = gen(i)
		}
		adv := finiteBatchAdv{steps: steps}
		cfg := Config{N: n, MaxInteractions: 1 << 20}
		var results [2]Result
		for i, disable := range []bool{false, true} {
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(waitAlg{}, hideBatch(disable, adv))
			if err != nil {
				t.Fatal(err)
			}
			results[i] = res
		}
		if results[0].Interactions != length {
			t.Errorf("length=%d: batched consumed %d", length, results[0].Interactions)
		}
		sameResult(t, fmt.Sprintf("length=%d", length), results[0], results[1])
	}
}

// TestBatchedErrorParity feeds an invalid interaction at various offsets
// and demands the exact error and partial progress of the scalar path.
func TestBatchedErrorParity(t *testing.T) {
	const n = 16
	for _, bad := range []seq.Interaction{{U: 3, V: 3}, {U: -2, V: 5}, {U: 2, V: 16}, {U: 40, V: 2}} {
		for _, at := range []int{0, 7, batchSize, batchSize + 5} {
			mk := func() batchGenAdv {
				inner := seq.UniformGen(n, rng.New(11))
				return batchGenAdv{gen: func(t int) seq.Interaction {
					if t == at {
						return bad
					}
					return inner(t)
				}}
			}
			var errs [2]string
			var results [2]Result
			for i, disable := range []bool{false, true} {
				cfg := Config{N: n, MaxInteractions: 1 << 20}
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run(waitAlg{}, hideBatch(disable, mk()))
				if err == nil {
					t.Fatalf("bad=%v at=%d disable=%v: expected error", bad, at, disable)
				}
				errs[i] = err.Error()
				results[i] = res
			}
			if errs[0] != errs[1] {
				t.Errorf("bad=%v at=%d: batched error %q != scalar %q", bad, at, errs[0], errs[1])
			}
			if !strings.Contains(errs[0], fmt.Sprintf("t=%d", at)) {
				t.Errorf("bad=%v at=%d: error %q does not name the offending time", bad, at, errs[0])
			}
			if results[0].Interactions != at || results[1].Interactions != at {
				t.Errorf("bad=%v at=%d: consumed %d batched / %d scalar, want %d",
					bad, at, results[0].Interactions, results[1].Interactions, at)
			}
		}
	}
}

// TestBatchedSteadyStateZeroAllocs extends the zero-allocation gate to
// the batched path: after the first run warms the engine (including the
// batch buffer), a whole Reset+Run cycle must report 0 allocs for every
// provenance mode.
func TestBatchedSteadyStateZeroAllocs(t *testing.T) {
	const n = 32
	for _, mode := range []ProvenanceMode{ProvenanceFull, ProvenanceCount, ProvenanceOff} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true, Provenance: mode}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			adv := batchGenAdv{gen: seq.UniformGen(n, rng.New(7))}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Run(gatherAlg{}, adv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v: steady-state batched run allocates %v objects, want 0", mode, allocs)
			}
		})
	}
}

// TestBadBatchCountRejected pins the engine's defence against misbehaving
// NextBatch implementations.
func TestBadBatchCountRejected(t *testing.T) {
	for _, over := range []int{batchSize + 1, -1} {
		adv := badCountAdv{count: over}
		eng, err := NewEngine(Config{N: 4, MaxInteractions: 10 * batchSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(waitAlg{}, adv); err == nil {
			t.Errorf("NextBatch returning %d should fail", over)
		}
	}
}

type badCountAdv struct{ count int }

func (badCountAdv) Name() string { return "bad-count" }
func (badCountAdv) Next(int, ExecView) (seq.Interaction, bool) {
	return seq.Interaction{U: 0, V: 1}, true
}
func (a badCountAdv) NextBatch(_ int, _ ExecView, buf []seq.Interaction) int {
	for i := range buf {
		buf[i] = seq.Interaction{U: 0, V: 1}
	}
	return a.count
}

// TestProvenanceModeParsing pins the mode names the CLIs and sweep cells
// use.
func TestProvenanceModeParsing(t *testing.T) {
	for _, mode := range []ProvenanceMode{ProvenanceFull, ProvenanceCount, ProvenanceOff} {
		got, err := ParseProvenanceMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseProvenanceMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if _, err := ParseProvenanceMode("auto"); err == nil {
		t.Error(`"auto" is a sweep-level choice, not an engine mode; parsing it must fail`)
	}
	if err := (&Engine{}).Reset(Config{N: 4, MaxInteractions: 10, Provenance: ProvenanceMode(9)}); err == nil {
		t.Error("invalid provenance mode must be rejected by Reset")
	}
}

// TestProvenanceModeSwitchAcrossResets runs full → count → full on one
// engine: the count run must not see stale origin sets, and the second
// full run must behave exactly like the first.
func TestProvenanceModeSwitchAcrossResets(t *testing.T) {
	const n = 24
	eng := &Engine{}
	run := func(mode ProvenanceMode) Result {
		t.Helper()
		cfg := Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true, Provenance: mode}
		if err := eng.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(gatherAlg{}, batchGenAdv{gen: seq.UniformGen(n, rng.New(42))})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Terminated {
			t.Fatalf("mode %v: did not terminate", mode)
		}
		return res
	}
	full1 := run(ProvenanceFull)
	count := run(ProvenanceCount)
	full2 := run(ProvenanceFull)
	if count.SinkValue.Origins != nil {
		t.Errorf("count mode leaked origins %v", count.SinkValue.Origins)
	}
	sameResult(t, "full-after-count", full2, full1)
	if full1.Duration != count.Duration || full1.Interactions != count.Interactions {
		t.Errorf("provenance mode changed the execution: %+v vs %+v", full1, count)
	}
}

// FuzzBatchedVsScalar fuzzes the differential property over seeds, sizes
// and provenance modes.
func FuzzBatchedVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(200), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, modeRaw uint8) {
		n := int(nRaw%120) + 2
		mode := ProvenanceMode(modeRaw % 3)
		cfg := Config{
			N: n, MaxInteractions: 400*n*n + 4000,
			VerifyAggregate: true, Provenance: mode,
		}
		batched, scalar := runBatchedAndScalar(t, cfg, seed)
		sameResult(t, fmt.Sprintf("seed=%d n=%d mode=%v", seed, n, mode), batched, scalar)
	})
}
