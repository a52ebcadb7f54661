package doda

// Benchmark harness: one Benchmark per experiment in EXPERIMENTS.md's index.
// Each benchmark measures the core workload that regenerates the
// corresponding paper result (the full sweeps live in
// `go run ./cmd/dodabench`); b.ReportMetric exposes the model-level
// quantity (interactions) next to wall-clock cost.

import (
	"fmt"
	"math"
	"testing"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/offline"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
	"doda/internal/sim"
	"doda/internal/sweep"
)

func benchSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{32}
	}
	return []int{32, 64, 128}
}

func runRandomized(b *testing.B, n int, seed uint64, alg core.Algorithm, cap int) core.Result {
	b.Helper()
	adv, _, err := adversary.Randomized(n, seed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.RunOnce(core.Config{N: n, MaxInteractions: cap}, alg, adv)
	if err != nil {
		b.Fatal(err)
	}
	if !res.Terminated {
		b.Fatalf("run did not terminate: %+v", res)
	}
	return res
}

// BenchmarkE1AdaptiveDefeat: Theorem 1 — adaptive adversary blocking
// Gathering forever (one bounded horizon per op).
func BenchmarkE1AdaptiveDefeat(b *testing.B) {
	const horizon = 10000
	for i := 0; i < b.N; i++ {
		adv, err := adversary.NewTheorem1(3, 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: 3, MaxInteractions: horizon},
			algorithms.NewGathering(), adv)
		if err != nil {
			b.Fatal(err)
		}
		if res.Terminated {
			b.Fatal("theorem 1 adversary failed")
		}
	}
}

// BenchmarkE2ObliviousDefeat: Theorem 2 — the star+blocking-loop sequence
// against an oblivious randomized algorithm.
func BenchmarkE2ObliviousDefeat(b *testing.B) {
	const n = 32
	built, err := adversary.BuildTheorem2(n, 4*n, 3, 4*n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		adv, err := adversary.NewOblivious("theorem2", built)
		if err != nil {
			b.Fatal(err)
		}
		alg, err := algorithms.NewGatheringTieBreak(algorithms.RandomTieBreak, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunOnce(core.Config{N: n, MaxInteractions: built.Len()}, alg, adv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3UnderlyingGraph: Theorem 3 — the cycle adversary against the
// spanning-tree algorithm.
func BenchmarkE3UnderlyingGraph(b *testing.B) {
	const horizon = 10000
	for i := 0; i < b.N; i++ {
		adv, err := adversary.NewTheorem3(4, 0)
		if err != nil {
			b.Fatal(err)
		}
		g, err := adv.UnderlyingGraph()
		if err != nil {
			b.Fatal(err)
		}
		know, err := knowledge.NewBundle(knowledge.WithUnderlying(g))
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: 4, MaxInteractions: horizon, Know: know},
			algorithms.NewSpanningTree(), adv)
		if err != nil {
			b.Fatal(err)
		}
		if res.Terminated {
			b.Fatal("theorem 3 adversary failed")
		}
	}
}

// BenchmarkE4SpanningTree: Theorem 4 — spanning-tree convergecast under a
// delayed recurrent schedule.
func BenchmarkE4SpanningTree(b *testing.B) {
	const n = 16
	g, err := buildE4Graph(n)
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges()
	for i := 0; i < b.N; i++ {
		adv, _, err := adversary.DelayedRecurrent(n, edges[1:], edges[0], 8)
		if err != nil {
			b.Fatal(err)
		}
		know, err := knowledge.NewBundle(knowledge.WithUnderlying(g))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunOnce(core.Config{N: n, MaxInteractions: 1 << 18, Know: know},
			algorithms.NewSpanningTree(), adv); err != nil {
			b.Fatal(err)
		}
	}
}

func buildE4Graph(n int) (*Graph, error) {
	// A cycle: every edge is removable, every node reachable.
	steps := make([]seq.Interaction, 0, n)
	for i := 0; i < n; i++ {
		it, err := seq.NewInteraction(NodeID(i), NodeID((i+1)%n))
		if err != nil {
			return nil, err
		}
		steps = append(steps, it)
	}
	s, err := seq.NewSequence(n, steps)
	if err != nil {
		return nil, err
	}
	return s.UnderlyingGraph(), nil
}

// BenchmarkE5TreeOptimal: Theorem 5 — optimal convergecast on a path
// tree, leaf-first schedule.
func BenchmarkE5TreeOptimal(b *testing.B) {
	const n = 64
	steps := make([]seq.Interaction, 0, n-1)
	for i := n - 2; i >= 0; i-- {
		steps = append(steps, seq.Interaction{U: NodeID(i), V: NodeID(i + 1)})
	}
	s, err := seq.NewSequence(n, steps)
	if err != nil {
		b.Fatal(err)
	}
	rounds := s.Repeat(2)
	g := s.UnderlyingGraph()
	for i := 0; i < b.N; i++ {
		adv, err := adversary.NewOblivious("tree", rounds)
		if err != nil {
			b.Fatal(err)
		}
		know, err := knowledge.NewBundle(knowledge.WithUnderlying(g))
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: n, MaxInteractions: rounds.Len(), Know: know},
			algorithms.NewSpanningTree(), adv)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Terminated || res.Duration != n-2 {
			b.Fatalf("not optimal: %+v", res)
		}
	}
}

// BenchmarkE6FutureCost: Theorem 6 — future gossip + optimal suffix
// schedule on a uniform sequence.
func BenchmarkE6FutureCost(b *testing.B) {
	const n = 16
	for i := 0; i < b.N; i++ {
		_, stream, err := adversary.Randomized(n, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		length := 40 * n * n
		prefix := stream.Prefix(length)
		know, err := knowledge.NewBundle(knowledge.WithFutures(prefix))
		if err != nil {
			b.Fatal(err)
		}
		adv, err := adversary.NewOblivious("uniform", prefix)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: n, MaxInteractions: length, Know: know},
			algorithms.NewFutureOptimal(length), adv)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Terminated {
			b.Fatalf("did not terminate: %+v", res)
		}
	}
}

// BenchmarkE7LowerBound: Theorem 7 — the Ω(n²) final transmission,
// measured on Gathering runs.
func BenchmarkE7LowerBound(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var gaps float64
			for i := 0; i < b.N; i++ {
				res := runRandomized(b, n, uint64(i), algorithms.NewGathering(), 40*n*n+4000)
				gaps += float64(res.LastGap + 1)
			}
			b.ReportMetric(gaps/float64(b.N), "final-gap/op")
		})
	}
}

// BenchmarkE8OfflineOptimal: Theorem 8 — one optimal convergecast
// computation per op.
func BenchmarkE8OfflineOptimal(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			horizon := 40*n*int(math.Log(float64(n))) + 512
			var total float64
			for i := 0; i < b.N; i++ {
				_, stream, err := adversary.Randomized(n, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				end, ok := offline.Opt(stream, 0, 0, horizon)
				if !ok {
					b.Fatal("no convergecast within horizon")
				}
				total += float64(end + 1)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkE9Waiting: Theorem 9 — one Waiting run per op.
func BenchmarkE9Waiting(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				res := runRandomized(b, n, uint64(i), algorithms.Waiting{},
					int(40*float64(n*n)*math.Log(float64(n)))+4000)
				total += float64(res.Duration + 1)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkE10Gathering: Theorem 9/Corollary 2 — one Gathering run per
// op; interactions/op tracks (n-1)².
func BenchmarkE10Gathering(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				res := runRandomized(b, n, uint64(i), algorithms.NewGathering(), 40*n*n+4000)
				total += float64(res.Duration + 1)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkE11SinkMeetings: Lemma 1 — interactions until the sink meets
// √(n ln n) distinct nodes.
func BenchmarkE11SinkMeetings(b *testing.B) {
	const n = 128
	target := int(math.Sqrt(float64(n) * math.Log(float64(n))))
	var total float64
	for i := 0; i < b.N; i++ {
		_, stream, err := adversary.Randomized(n, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		seen := make(map[NodeID]bool, target)
		steps := 0
		for len(seen) < target {
			it := stream.At(steps)
			steps++
			if other, ok := it.Other(0); ok {
				seen[other] = true
			}
		}
		total += float64(steps)
	}
	b.ReportMetric(total/float64(b.N), "interactions/op")
}

// BenchmarkE12WaitingGreedy: Theorem 10/Corollary 3 — one WG(τ*) run per
// op, including the meetTime oracle look-ahead.
func BenchmarkE12WaitingGreedy(b *testing.B) {
	for _, n := range benchSizes(b) {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tau := algorithms.TauStar(n)
			cap := 3*tau + 12*n*n
			var total float64
			for i := 0; i < b.N; i++ {
				adv, stream, err := adversary.Randomized(n, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				know, err := knowledge.NewBundle(knowledge.WithMeetTime(stream, 0, cap))
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunOnce(core.Config{N: n, MaxInteractions: cap, Know: know},
					algorithms.WaitingGreedy{Tau: tau}, adv)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Terminated {
					b.Fatalf("did not terminate: %+v", res)
				}
				total += float64(res.Duration + 1)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkE13MeetTimeOptimal: Theorem 11 — the Gathering-vs-WG(τ*)
// head-to-head at one size.
func BenchmarkE13MeetTimeOptimal(b *testing.B) {
	const n = 64
	b.Run("gathering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runRandomized(b, n, uint64(i), algorithms.NewGathering(), 40*n*n+4000)
		}
	})
	b.Run("waiting-greedy", func(b *testing.B) {
		tau := algorithms.TauStar(n)
		cap := 3*tau + 12*n*n
		for i := 0; i < b.N; i++ {
			adv, stream, err := adversary.Randomized(n, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			know, err := knowledge.NewBundle(knowledge.WithMeetTime(stream, 0, cap))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.RunOnce(core.Config{N: n, MaxInteractions: cap, Know: know},
				algorithms.WaitingGreedy{Tau: tau}, adv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE14FutureRandomized: Corollary 1 — future-optimal under the
// randomized adversary.
func BenchmarkE14FutureRandomized(b *testing.B) {
	const n = 24
	length := 60 * n * int(math.Log(float64(n)))
	for i := 0; i < b.N; i++ {
		_, stream, err := adversary.Randomized(n, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		prefix := stream.Prefix(length)
		know, err := knowledge.NewBundle(knowledge.WithFutures(prefix))
		if err != nil {
			b.Fatal(err)
		}
		adv, err := adversary.NewOblivious("uniform", prefix)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: n, MaxInteractions: length, Know: know},
			algorithms.NewFutureOptimal(length), adv)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Terminated {
			b.Fatalf("did not terminate: %+v", res)
		}
	}
}

// BenchmarkA1GatheringTieBreak: ablation — tie-break variants.
func BenchmarkA1GatheringTieBreak(b *testing.B) {
	const n = 64
	variants := []struct {
		name string
		make func(i int) (core.Algorithm, error)
	}{
		{name: "first", make: func(int) (core.Algorithm, error) { return algorithms.NewGathering(), nil }},
		{name: "second", make: func(int) (core.Algorithm, error) {
			return algorithms.NewGatheringTieBreak(algorithms.SecondByID, 0)
		}},
		{name: "random", make: func(i int) (core.Algorithm, error) {
			return algorithms.NewGatheringTieBreak(algorithms.RandomTieBreak, uint64(i))
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				alg, err := v.make(i)
				if err != nil {
					b.Fatal(err)
				}
				runRandomized(b, n, uint64(i), alg, 40*n*n+4000)
			}
		})
	}
}

// BenchmarkA2TauSensitivity: ablation — WG at τ*/2, τ*, 2τ*.
func BenchmarkA2TauSensitivity(b *testing.B) {
	const n = 64
	star := algorithms.TauStar(n)
	for _, c := range []struct {
		name string
		tau  int
	}{
		{name: "half", tau: star / 2},
		{name: "star", tau: star},
		{name: "double", tau: 2 * star},
	} {
		b.Run(c.name, func(b *testing.B) {
			cap := 3*c.tau + 12*n*n
			for i := 0; i < b.N; i++ {
				adv, stream, err := adversary.Randomized(n, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				know, err := knowledge.NewBundle(knowledge.WithMeetTime(stream, 0, cap))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.RunOnce(core.Config{N: n, MaxInteractions: cap, Know: know},
					algorithms.WaitingGreedy{Tau: c.tau}, adv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA3EngineVsSim: ablation — sequential engine vs goroutine
// message-passing runtime on identical workloads.
func BenchmarkA3EngineVsSim(b *testing.B) {
	const n = 32
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runRandomized(b, n, uint64(i), algorithms.NewGathering(), 40*n*n+4000)
		}
	})
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			adv, _, err := adversary.Randomized(n, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			rt, err := sim.NewRuntime(sim.Config{N: n, MaxInteractions: 40*n*n + 4000})
			if err != nil {
				b.Fatal(err)
			}
			res, err := rt.Run(algorithms.NewGathering(), adv)
			rt.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Terminated {
				b.Fatalf("did not terminate: %+v", res)
			}
		}
	})
}

// BenchmarkX1WeightedAdversary: extension — Gathering under a Zipf
// contact distribution (the paper's open question 3).
func BenchmarkX1WeightedAdversary(b *testing.B) {
	const n = 64
	ws, err := adversary.ZipfWeights(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		adv, _, err := adversary.Weighted(ws, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunOnce(core.Config{N: n, MaxInteractions: 1 << 22},
			algorithms.NewGathering(), adv)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Terminated {
			b.Fatalf("did not terminate: %+v", res)
		}
		total += float64(res.Duration + 1)
	}
	b.ReportMetric(total/float64(b.N), "interactions/op")
}

// BenchmarkX2KnowledgeLadder: extension — one run per knowledge rung at
// a fixed size.
func BenchmarkX2KnowledgeLadder(b *testing.B) {
	const n = 32
	b.Run("gathering", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runRandomized(b, n, uint64(i), algorithms.NewGathering(), 40*n*n+4000)
		}
	})
	b.Run("full-knowledge", func(b *testing.B) {
		const horizon = 1 << 16
		for i := 0; i < b.N; i++ {
			adv, stream, err := adversary.Randomized(n, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			know, err := knowledge.NewBundle(knowledge.WithFullSequence(stream))
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.RunOnce(core.Config{N: n, MaxInteractions: horizon, Know: know},
				algorithms.NewFullKnowledge(horizon), adv)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Terminated {
				b.Fatalf("did not terminate: %+v", res)
			}
		}
	})
}

// BenchmarkA4MeetTimeOracle: ablation — amortised cost of the meetTime
// oracle's lazy look-ahead index.
func BenchmarkA4MeetTimeOracle(b *testing.B) {
	const n = 128
	_, stream, err := adversary.Randomized(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	mtKnow, err := knowledge.NewBundle(knowledge.WithMeetTime(stream, 0, 1<<22))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := NodeID(1 + i%(n-1))
		if _, _, err := mtKnow.MeetTime(u, i%100000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathEngine: the zero-allocation measurement loop — engine
// reuse via Reset, generated (non-caching) uniform adversary, Gathering —
// on the one-Next-call-per-interaction path: the adversary runs behind
// struct{ core.Adversary }, which hides NextBatch, as every plain
// adaptive adversary does. BenchmarkHotPathEngineBatched is the same
// workload drained in batches. interactions/op is the model-level work
// per run; allocs/op must stay 0.
func BenchmarkHotPathEngine(b *testing.B) {
	const n = 64
	cfg := core.Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(1)))
	if err != nil {
		b.Fatal(err)
	}
	// Boxed once, outside the loop: a per-run conversion would allocate.
	var adv core.Adversary = struct{ core.Adversary }{gen}
	alg := algorithms.NewGathering()
	var total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run(alg, adv)
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res.Interactions)
	}
	b.ReportMetric(total/float64(b.N), "interactions/op")
}

// BenchmarkHotPathAliasDraw: one O(1) weighted draw from the Vose alias
// table (the weighted adversary's elementary step; allocs/op must be 0).
func BenchmarkHotPathAliasDraw(b *testing.B) {
	ws, err := adversary.ZipfWeights(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	table, err := rng.NewAlias(ws)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += table.Draw(src)
	}
	_ = sink
}

// BenchmarkHotPathWeightedGen: one full weighted interaction (two alias
// draws plus the without-replacement rejection), replacing the old O(n)
// CDF scan.
func BenchmarkHotPathWeightedGen(b *testing.B) {
	ws, err := adversary.ZipfWeights(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := adversary.WeightedGen(ws, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen(i)
	}
}

// BenchmarkSweepGrid: whole-fleet throughput of the sharded sweep engine
// (cells/sec over a scenario×algorithm×size grid, all cores).
func BenchmarkSweepGrid(b *testing.B) {
	grid := sweep.Grid{
		Scenarios: []sweep.ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "community", Params: map[string]string{"communities": "2"}},
		},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{16, 24},
		Replicas:   3,
		Seed:       4,
	}
	cells, err := grid.Cells()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sweep.Run(grid, sweep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells))*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// benchModels returns one instance of every generative scenario model.
func benchModels(b *testing.B, n int) []scenario.Model {
	b.Helper()
	uni, err := scenario.NewUniform(n)
	if err != nil {
		b.Fatal(err)
	}
	em, err := scenario.NewEdgeMarkovian(n, 0.05, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	sizes, err := scenario.EvenSizes(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := scenario.NewCommunity(sizes, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := scenario.NewChurn(uni, 0.1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return []scenario.Model{uni, em, cm, ch}
}

// BenchmarkS1ScenarioGen: generation throughput of each scenario model
// (one interaction per op, raw generator without stream caching).
func BenchmarkS1ScenarioGen(b *testing.B) {
	const n = 64
	for _, m := range benchModels(b, n) {
		b.Run(m.Name(), func(b *testing.B) {
			gen := m.Generator(rng.New(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen(i)
			}
		})
	}
}

// BenchmarkS2ScenarioGathering: one full Gathering run per op against
// each scenario workload, the unit of every scenario sweep.
func BenchmarkS2ScenarioGathering(b *testing.B) {
	const n = 64
	for _, m := range benchModels(b, n) {
		b.Run(m.Name(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				adv, _, err := scenario.Adversary(m, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.RunOnce(core.Config{N: n, MaxInteractions: 1 << 22},
					algorithms.NewGathering(), adv)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Terminated {
					b.Fatalf("did not terminate: %+v", res)
				}
				total += float64(res.Duration + 1)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}

// BenchmarkHotPathEngineBatched: the batched measurement loop — identical
// workload to BenchmarkHotPathEngine but drained through NextBatch;
// allocs/op must stay 0 in steady state.
func BenchmarkHotPathEngineBatched(b *testing.B) {
	const n = 64
	cfg := core.Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	adv, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(1)))
	if err != nil {
		b.Fatal(err)
	}
	alg := algorithms.NewGathering()
	var total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Reset(cfg); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Run(alg, adv)
		if err != nil {
			b.Fatal(err)
		}
		total += float64(res.Interactions)
	}
	b.ReportMetric(total/float64(b.N), "interactions/op")
}

// BenchmarkLargeNEngine: capped large-n throughput of the batched engine
// under count-only provenance — the configuration the big sweep grids run.
func BenchmarkLargeNEngine(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const cap = 1 << 20
			cfg := core.Config{N: n, MaxInteractions: cap, VerifyAggregate: true, Provenance: core.ProvenanceCount}
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			alg := algorithms.NewGathering()
			var total float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Reset(cfg); err != nil {
					b.Fatal(err)
				}
				adv, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(uint64(i))))
				if err != nil {
					b.Fatal(err)
				}
				res, err := eng.Run(alg, adv)
				if err != nil {
					b.Fatal(err)
				}
				total += float64(res.Interactions)
			}
			b.ReportMetric(total/float64(b.N), "interactions/op")
		})
	}
}
