package experiments

// Ablations A1-A2: the design-choice probes EXPERIMENTS.md indexes.

import (
	"fmt"
	"math"

	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/stats"
	"doda/internal/sweep"
)

func a1() Experiment {
	return Experiment{
		ID:         "A1",
		Name:       "Gathering tie-break ablation",
		PaperClaim: "The (n-1)² expectation does not depend on which data owner receives",
		Run:        runA1,
	}
}

func runA1(cfg Config) (*Report, error) {
	r := &Report{ID: "A1", Name: "Gathering tie-break ablation",
		PaperClaim: "Theorem 9's Gathering analysis counts owner pairs only; the receiver choice is irrelevant"}
	n := 32
	if cfg.scale() == ScaleFull {
		n = 96
	}
	rep := reps(cfg, 150, 500)
	src := rng.New(cfg.Seed ^ 0xa1)
	tb := &Table{
		Title:   fmt.Sprintf("Gathering variants at n=%d", n),
		Columns: []string{"tie-break", "mean", "(n-1)²", "ratio"},
	}
	variants := []struct {
		name string
		make func() (core.Algorithm, error)
	}{
		{name: "first-by-id", make: func() (core.Algorithm, error) { return algorithms.NewGathering(), nil }},
		{name: "second-by-id", make: func() (core.Algorithm, error) {
			return algorithms.NewGatheringTieBreak(algorithms.SecondByID, 0)
		}},
		{name: "random", make: func() (core.Algorithm, error) {
			return algorithms.NewGatheringTieBreak(algorithms.RandomTieBreak, src.Uint64())
		}},
	}
	var run sweep.Runner
	for _, v := range variants {
		var w stats.Welford
		for i := 0; i < rep; i++ {
			alg, err := v.make()
			if err != nil {
				return nil, err
			}
			res, err := playUniform(&run, n, alg, gatheringCap(n), src.Uint64())
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: A1 %s did not terminate", v.name)
			}
			w.Add(float64(res.Duration + 1))
		}
		expected := expectedGathering(n)
		tb.AddRow(v.name, w.Mean(), expected, w.Mean()/expected)
		r.meanRatioBand(fmt.Sprintf("%s mean", v.name), w.Mean(), expected, 0.9, 1.1)
		cfg.progressf("A1 %s mean=%.0f\n", v.name, w.Mean())
	}
	r.Tables = append(r.Tables, tb)
	return r, nil
}

func a2() Experiment {
	return Experiment{
		ID:         "A2",
		Name:       "Waiting Greedy τ sensitivity",
		PaperClaim: "Success within τ degrades below τ* and saturates above it",
		Run:        runA2,
	}
}

func runA2(cfg Config) (*Report, error) {
	r := &Report{ID: "A2", Name: "Waiting Greedy τ sensitivity",
		PaperClaim: "Corollary 3's τ* = n^{3/2}√log n is the knee of the success curve"}
	n := 64
	if cfg.scale() == ScaleFull {
		n = 192
	}
	rep := reps(cfg, 60, 200)
	src := rng.New(cfg.Seed ^ 0xa2)
	star := algorithms.TauStar(n)
	factors := []float64{0.25, 0.5, 1, 2, 4}
	tb := &Table{
		Title:   fmt.Sprintf("WGτ at n=%d, τ* = %d", n, star),
		Columns: []string{"τ/τ*", "τ", "success rate", "mean duration"},
	}
	rates := make([]float64, 0, len(factors))
	var run sweep.Runner
	for _, c := range factors {
		tau := int(math.Round(c * float64(star)))
		success := 0
		var durations stats.Welford
		for i := 0; i < rep; i++ {
			res, err := playUniform(&run, n, algorithms.WaitingGreedy{Tau: tau}, waitingGreedyCap(n, tau), src.Uint64())
			if err != nil {
				return nil, err
			}
			if res.Terminated {
				durations.Add(float64(res.Duration + 1))
				if res.Duration < tau {
					success++
				}
			}
		}
		rate := float64(success) / float64(rep)
		rates = append(rates, rate)
		tb.AddRow(c, tau, rate, durations.Mean())
		cfg.progressf("A2 c=%.2f rate=%.2f\n", c, rate)
	}
	r.Tables = append(r.Tables, tb)
	r.check("success rate is monotone in τ", isNonDecreasing(rates),
		"rates %v", rates, "non-decreasing in τ")
	r.check("τ* succeeds w.h.p.", rates[2] >= 0.8, "rate %.3f", rates[2], ">= 0.8 at τ*")
	r.check("τ*/4 fails often", rates[0] <= 0.5, "rate %.3f", rates[0], "<= 0.5 at τ*/4")
	return r, nil
}

func isNonDecreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1]-0.05 { // tolerate Monte-Carlo jitter
			return false
		}
	}
	return true
}
