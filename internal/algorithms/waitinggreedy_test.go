package algorithms

import (
	"fmt"
	"math"
	"testing"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/seq"
)

// paperDecide is the WGτ rule exactly as the paper states it, from both
// endpoints' exact meeting times (+∞, as math.MaxInt, beyond the oracle's
// horizon): the reference the lazy Decide must reproduce.
func paperDecide(know *knowledge.Bundle, tau int, it seq.Interaction, t int) core.Decision {
	meetOrInf := func(u graph.NodeID) int {
		m, ok, err := know.MeetTime(u, t)
		if err != nil || !ok {
			return math.MaxInt
		}
		return m
	}
	m1, m2 := meetOrInf(it.U), meetOrInf(it.V)
	switch {
	case m1 <= m2 && tau < m2:
		return core.FirstReceives
	case m1 > m2 && tau < m1:
		return core.SecondReceives
	default:
		return core.NoTransfer
	}
}

// TestWaitingGreedyLazyRuleIsPaperRule compares the lazy Decide with the
// paper's two-lookup rule on every interaction {u, v} at every time t of
// random uniform and zipf sequences, for sinks at both ends of the
// identifier range (so the sink is sometimes U and sometimes V),
// thresholds 0, small, τ* and at or past the horizon, and horizons that
// run to the end of the sequence or stop short of τ.
func TestWaitingGreedyLazyRuleIsPaperRule(t *testing.T) {
	const length = 240
	decisions := map[core.Decision]int{}
	for _, n := range []int{5, 9} {
		weights, err := adversary.ZipfWeights(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			zipf, err := adversary.WeightedGen(weights, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			sequences := map[string]func(int) seq.Interaction{
				"uniform": seq.UniformGen(n, rng.New(seed)),
				"zipf":    zipf,
			}
			for name, gen := range sequences {
				steps := make([]seq.Interaction, length)
				for i := range steps {
					steps[i] = gen(i)
				}
				s := mustSequence(t, n, steps)
				for _, sink := range []graph.NodeID{0, graph.NodeID(n - 1)} {
					for _, horizon := range []int{length, length / 3, 7} {
						for _, tau := range []int{0, 3, TauStar(n), horizon, horizon + 5, math.MaxInt} {
							label := fmt.Sprintf("%s/n=%d/seed=%d/sink=%d/horizon=%d/τ=%d", name, n, seed, sink, horizon, tau)
							lazy := &core.Env{N: n, Sink: sink, Know: mustBundle(t, knowledge.WithMeetTime(s, sink, horizon))}
							paper := mustBundle(t, knowledge.WithMeetTime(s, sink, horizon))
							alg := WaitingGreedy{Tau: tau}
							if err := alg.Setup(lazy); err != nil {
								t.Fatal(err)
							}
							for ti := 0; ti < length; ti++ {
								for u := 0; u < n; u++ {
									for v := u + 1; v < n; v++ {
										it := seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)}
										got, want := alg.Decide(lazy, it, ti), paperDecide(paper, tau, it, ti)
										if got != want {
											t.Fatalf("%s: Decide(%v, t=%d) = %v, paper rule %v", label, it, ti, got, want)
										}
										decisions[want]++
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// Every branch of the rule must have been exercised.
	for _, d := range []core.Decision{core.NoTransfer, core.FirstReceives, core.SecondReceives} {
		if decisions[d] == 0 {
			t.Errorf("no decision %v in %v", d, decisions)
		}
	}
}
