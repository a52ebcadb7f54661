package experiments

// Experiments E7-E14: the randomized adversary results of Section 4 —
// lower bounds, the offline optimum, Waiting/Gathering closed forms,
// Lemma 1 concentration, Waiting Greedy, and future knowledge.

import (
	"fmt"
	"math"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/graph"
	"doda/internal/knowledge"
	"doda/internal/offline"
	"doda/internal/rng"
	"doda/internal/seq"
	"doda/internal/stats"
	"doda/internal/sweep"
)

func e7() Experiment {
	return Experiment{
		ID:         "E7",
		Name:       "Ω(n²) lower bound without knowledge",
		PaperClaim: "Theorem 7: the last transmission alone takes n(n-1)/2 expected interactions",
		Run:        runE7,
	}
}

func runE7(cfg Config) (*Report, error) {
	r := &Report{ID: "E7", Name: "Ω(n²) lower bound without knowledge",
		PaperClaim: "Theorem 7: E[final gap] = n(n-1)/2 for any no-knowledge algorithm"}
	ns := sizes(cfg, []int{16, 24, 32, 48}, []int{16, 32, 64, 128, 256})
	rep := reps(cfg, 120, 400)
	src := rng.New(cfg.Seed ^ 0xe7)
	tb := &Table{
		Title:   "Theorem 7: interactions consumed by the final transmission",
		Columns: []string{"algorithm", "n", "mean last gap", "n(n-1)/2", "ratio"},
	}
	var run sweep.Runner
	for _, alg := range []core.Algorithm{algorithms.NewGathering(), algorithms.Waiting{}} {
		name := alg.Name()
		var xs, ys []float64
		for _, n := range ns {
			var gaps stats.Welford
			for i := 0; i < rep; i++ {
				res, err := playUniform(&run, n, alg, waitingCap(n), src.Uint64())
				if err != nil {
					return nil, err
				}
				if !res.Terminated {
					return nil, fmt.Errorf("experiments: E7 %s n=%d did not terminate", name, n)
				}
				gaps.Add(float64(res.LastGap + 1)) // +1: the final transmission itself
			}
			expected := float64(n) * float64(n-1) / 2
			tb.AddRow(name, n, gaps.Mean(), expected, gaps.Mean()/expected)
			xs = append(xs, float64(n))
			ys = append(ys, gaps.Mean())
			r.meanRatioBand(fmt.Sprintf("%s n=%d final gap", name, n), gaps.Mean(), expected, 0.7, 1.4)
			cfg.progressf("E7 %s n=%d mean=%.0f\n", name, n, gaps.Mean())
		}
		r.exponentBand(fmt.Sprintf("%s final-gap exponent", name), xs, ys, 1.7, 2.3)
	}
	r.Tables = append(r.Tables, tb)
	return r, nil
}

func e8() Experiment {
	return Experiment{
		ID:         "E8",
		Name:       "Offline optimum is Θ(n log n)",
		PaperClaim: "Theorem 8: best full-knowledge algorithm finishes in (n-1)·H(n-1) expected interactions, w.h.p.",
		Run:        runE8,
	}
}

func runE8(cfg Config) (*Report, error) {
	r := &Report{ID: "E8", Name: "Offline optimum is Θ(n log n)",
		PaperClaim: "Theorem 8: E[opt] = (n-1)·H(n-1); concentration via Chebyshev"}
	ns := sizes(cfg, []int{16, 32, 64, 128}, []int{16, 32, 64, 128, 256, 512})
	rep := reps(cfg, 150, 500)
	src := rng.New(cfg.Seed ^ 0xe8)
	tb := &Table{
		Title:   "Theorem 8: optimal convergecast completion on uniform sequences",
		Columns: []string{"n", "mean opt", "(n-1)H(n-1)", "ratio", "stddev/mean"},
	}
	var xs, ys []float64
	for _, n := range ns {
		var opts stats.Welford
		for i := 0; i < rep; i++ {
			_, stream, err := adversary.Randomized(n, src.Uint64())
			if err != nil {
				return nil, err
			}
			end, ok := offline.Opt(stream, 0, 0, offlineHorizon(n))
			if !ok {
				return nil, fmt.Errorf("experiments: E8 no convergecast within horizon (n=%d)", n)
			}
			opts.Add(float64(end + 1))
		}
		expected := expectedOffline(n)
		cv := opts.StdDev() / opts.Mean()
		tb.AddRow(n, opts.Mean(), expected, opts.Mean()/expected, cv)
		xs = append(xs, float64(n))
		ys = append(ys, opts.Mean())
		r.meanRatioBand(fmt.Sprintf("n=%d mean", n), opts.Mean(), expected, 0.85, 1.15)
		r.check(fmt.Sprintf("n=%d concentrated", n), cv < 0.5,
			"stddev/mean %.3f", cv, "< 0.5 (w.h.p. concentration)")
		cfg.progressf("E8 n=%d mean=%.0f\n", n, opts.Mean())
	}
	// Near-linear growth: exponent of n log n on a log-log fit against n
	// lies slightly above 1.
	r.exponentBand("opt exponent", xs, ys, 1.0, 1.35)
	r.Tables = append(r.Tables, tb)
	return r, nil
}

func e9() Experiment {
	return Experiment{
		ID:         "E9",
		Name:       "Waiting: E = n(n-1)/2·H(n-1), Var ~ n⁴π²/24",
		PaperClaim: "Theorem 9 (Waiting): exact expectation and variance of the Waiting algorithm",
		Run:        runE9,
	}
}

func runE9(cfg Config) (*Report, error) {
	r := &Report{ID: "E9", Name: "Waiting: E = n(n-1)/2·H(n-1), Var ~ n⁴π²/24",
		PaperClaim: "Theorem 9: O(n² log n) interactions w.h.p. for Waiting"}
	ns := sizes(cfg, []int{16, 24, 32}, []int{16, 32, 64, 128})
	rep := reps(cfg, 200, 600)
	src := rng.New(cfg.Seed ^ 0xe9)
	tb := &Table{
		Title:   "Theorem 9 (Waiting) on uniform sequences",
		Columns: []string{"n", "mean", "theory mean", "ratio", "variance", "n⁴π²/24", "var ratio"},
	}
	var xs, ys []float64
	var run sweep.Runner
	for _, n := range ns {
		var w stats.Welford
		for i := 0; i < rep; i++ {
			res, err := playUniform(&run, n, algorithms.Waiting{}, waitingCap(n), src.Uint64())
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: E9 n=%d did not terminate", n)
			}
			w.Add(float64(res.Duration + 1))
		}
		expMean := expectedWaiting(n)
		expVar := math.Pow(float64(n), 4) * math.Pi * math.Pi / 24
		tb.AddRow(n, w.Mean(), expMean, w.Mean()/expMean, w.Variance(), expVar, w.Variance()/expVar)
		xs = append(xs, float64(n))
		ys = append(ys, w.Mean())
		r.meanRatioBand(fmt.Sprintf("n=%d mean", n), w.Mean(), expMean, 0.9, 1.1)
		r.check(fmt.Sprintf("n=%d variance", n), stats.WithinFactor(w.Variance(), expVar, 3),
			"var ratio %.3f", w.Variance()/expVar, "within 3x of n⁴π²/24 (asymptotic)")
		cfg.progressf("E9 n=%d mean=%.0f\n", n, w.Mean())
	}
	r.exponentBand("waiting exponent", xs, ys, 1.9, 2.4)
	r.Tables = append(r.Tables, tb)
	return r, nil
}

func e10() Experiment {
	return Experiment{
		ID:         "E10",
		Name:       "Gathering: E = (n-1)² exactly; optimal without knowledge",
		PaperClaim: "Theorem 9 (Gathering) + Corollary 2: O(n²), matching the Ω(n²) lower bound",
		Run:        runE10,
	}
}

func runE10(cfg Config) (*Report, error) {
	r := &Report{ID: "E10", Name: "Gathering: E = (n-1)² exactly; optimal without knowledge",
		PaperClaim: "Theorem 9: E[X_G] = n(n-1)·Σ 1/(i(i+1)) = (n-1)²; Corollary 2: optimal in DODA"}
	ns := sizes(cfg, []int{16, 24, 32, 48}, []int{16, 32, 64, 128, 256})
	rep := reps(cfg, 150, 500)
	src := rng.New(cfg.Seed ^ 0x10)
	tb := &Table{
		Title:   "Theorem 9 (Gathering) on uniform sequences",
		Columns: []string{"n", "mean", "(n-1)²", "ratio", "mean cost", "n/ln n"},
	}
	var xs, ys []float64
	var run sweep.Runner
	for _, n := range ns {
		var w, costs stats.Welford
		for i := 0; i < rep; i++ {
			seed := src.Uint64()
			res, err := playUniform(&run, n, algorithms.NewGathering(), gatheringCap(n), seed)
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: E10 n=%d did not terminate", n)
			}
			w.Add(float64(res.Duration + 1))
			// Cost on a subsample (the clock is the expensive part). The
			// clock reads the replica's sequence from a stream of its own.
			if i < rep/5+1 {
				stream, err := seq.NewStream(n, seq.UniformGen(n, rng.New(seed)))
				if err != nil {
					return nil, err
				}
				clock, err := offline.NewClock(stream, 0, res.Duration+offlineHorizon(n))
				if err != nil {
					return nil, err
				}
				cost, ok := clock.Cost(res.Duration)
				if !ok {
					return nil, fmt.Errorf("experiments: E10 cost not computable (n=%d)", n)
				}
				costs.Add(float64(cost))
			}
		}
		expected := expectedGathering(n)
		tb.AddRow(n, w.Mean(), expected, w.Mean()/expected, costs.Mean(), float64(n)/lnF(n))
		xs = append(xs, float64(n))
		ys = append(ys, w.Mean())
		r.meanRatioBand(fmt.Sprintf("n=%d mean", n), w.Mean(), expected, 0.9, 1.1)
		r.check(fmt.Sprintf("n=%d cost ~ n/log n", n),
			stats.WithinFactor(costs.Mean(), float64(n)/lnF(n), 3),
			"mean cost %.2f", costs.Mean(), fmt.Sprintf("within 3x of n/ln n = %.2f", float64(n)/lnF(n)))
		cfg.progressf("E10 n=%d mean=%.0f cost=%.1f\n", n, w.Mean(), costs.Mean())
	}
	r.exponentBand("gathering exponent", xs, ys, 1.85, 2.15)
	r.Tables = append(r.Tables, tb)
	return r, nil
}

func e11() Experiment {
	return Experiment{
		ID:         "E11",
		Name:       "Sink meets Θ(f(n)) nodes in n·f(n) interactions",
		PaperClaim: "Lemma 1: E[interactions to meet f(n) distinct nodes] ~ n·f(n)/2, w.h.p.",
		Run:        runE11,
	}
}

func runE11(cfg Config) (*Report, error) {
	r := &Report{ID: "E11", Name: "Sink meets Θ(f(n)) nodes in n·f(n) interactions",
		PaperClaim: "Lemma 1: meeting f(n) distinct nodes takes ~ n·f(n)/2 interactions"}
	n := 128
	if cfg.scale() == ScaleFull {
		n = 512
	}
	rep := reps(cfg, 150, 500)
	src := rng.New(cfg.Seed ^ 0x11)
	fs := lemmaFChoices(n)
	tb := &Table{
		Title:   fmt.Sprintf("Lemma 1 at n=%d", n),
		Columns: []string{"f(n)", "value", "mean interactions", "n·f/2", "exact, k=⌊f⌋", "ratio"},
	}
	for _, fc := range fs {
		target := max(1, int(fc.value))
		var w stats.Welford
		for i := 0; i < rep; i++ {
			gen := seq.UniformGen(n, rng.New(src.Uint64()))
			seen := make(map[graph.NodeID]bool, target)
			steps := 0
			for len(seen) < target {
				it := gen(steps)
				steps++
				if other, ok := it.Other(0); ok {
					seen[other] = true
				}
			}
			w.Add(float64(steps))
		}
		// The run stops at k = target distinct nodes. The sink is in an
		// interaction with probability 2/n and meets each of the other
		// n-1 nodes alike, so the exact expectation is n/2 times that of
		// collecting k of n-1 coupons. n·f/2 is the paper's form.
		expected := float64(n) * float64(n-1) / 2 * (stats.Harmonic(n-1) - stats.Harmonic(n-1-target))
		tb.AddRow(fc.label, fc.value, w.Mean(), float64(n)*fc.value/2, expected, w.Mean()/expected)
		r.meanRatioBand(fmt.Sprintf("f=%s", fc.label), w.Mean(), expected, 0.8, 1.3)
		cfg.progressf("E11 f=%s mean=%.0f\n", fc.label, w.Mean())
	}
	r.Tables = append(r.Tables, tb)
	return r, nil
}

type fChoice struct {
	label string
	value float64
}

func lemmaFChoices(n int) []fChoice {
	fn := float64(n)
	return []fChoice{
		{label: "n^1/4", value: math.Pow(fn, 0.25)},
		{label: "sqrt(n)", value: math.Sqrt(fn)},
		{label: "sqrt(n·ln n)", value: math.Sqrt(fn * math.Log(fn))},
		{label: "n^3/4", value: math.Pow(fn, 0.75)},
	}
}

func e12() Experiment {
	return Experiment{
		ID:         "E12",
		Name:       "Waiting Greedy terminates by τ w.h.p.; f* = √(n log n)",
		PaperClaim: "Theorem 10 + Corollary 3: τ = Θ(max(nf, n²log n/f)), minimised at τ* = Θ(n^{3/2}√log n)",
		Run:        runE12,
	}
}

func runE12(cfg Config) (*Report, error) {
	r := &Report{ID: "E12", Name: "Waiting Greedy terminates by τ w.h.p.; f* = √(n log n)",
		PaperClaim: "Theorem 10: WGτ with τ = max(nf, n²ln n/f) terminates within τ w.h.p."}
	n := 64
	if cfg.scale() == ScaleFull {
		n = 256
	}
	rep := reps(cfg, 60, 200)
	src := rng.New(cfg.Seed ^ 0x12)
	fs := lemmaFChoices(n)
	tb := &Table{
		Title:   fmt.Sprintf("Theorem 10 f-sweep at n=%d: τ(f) = max(n·f, n²·ln n / f)", n),
		Columns: []string{"f(n)", "τ", "success rate", "mean duration", "duration/τ"},
	}
	fn := float64(n)
	bestTau := math.Inf(1)
	var bestLabel string
	starTau := 0.0
	var run sweep.Runner
	for _, fc := range fs {
		tau := int(math.Max(fn*fc.value, fn*fn*math.Log(fn)/fc.value))
		if float64(tau) < bestTau {
			bestTau, bestLabel = float64(tau), fc.label
		}
		if fc.label == "sqrt(n·ln n)" {
			starTau = float64(tau)
		}
		success := 0
		var durations stats.Welford
		for i := 0; i < rep; i++ {
			res, err := playUniform(&run, n, algorithms.WaitingGreedy{Tau: tau}, waitingGreedyCap(n, tau), src.Uint64())
			if err != nil {
				return nil, err
			}
			if res.Terminated && res.Duration < tau {
				success++
			}
			if res.Terminated {
				durations.Add(float64(res.Duration + 1))
			}
		}
		rate := float64(success) / float64(rep)
		tb.AddRow(fc.label, tau, rate, durations.Mean(), durations.Mean()/float64(tau))
		r.check(fmt.Sprintf("f=%s terminates by τ", fc.label), rate >= 0.8,
			"success rate %.3f", rate, ">= 0.8 (w.h.p.)")
		cfg.progressf("E12 f=%s τ=%d rate=%.2f\n", fc.label, tau, rate)
	}
	r.Tables = append(r.Tables, tb)
	r.check("τ minimised at f* = √(n ln n)", bestTau == starTau,
		"best f %s", bestLabel, "sqrt(n·ln n) (Corollary 3)")
	return r, nil
}

func e13() Experiment {
	return Experiment{
		ID:         "E13",
		Name:       "Waiting Greedy is optimal in DODA(meetTime)",
		PaperClaim: "Theorem 11: WG(τ*) at Θ(n^{3/2}√log n) beats the Θ(n²) no-knowledge optimum",
		Run:        runE13,
	}
}

func runE13(cfg Config) (*Report, error) {
	r := &Report{ID: "E13", Name: "Waiting Greedy is optimal in DODA(meetTime)",
		PaperClaim: "Theorem 11: exponent separation 3/2 vs 2; WG wins for large n"}
	ns := sizes(cfg, []int{16, 32, 64, 96}, []int{16, 32, 64, 128, 256, 384})
	rep := reps(cfg, 60, 200)
	src := rng.New(cfg.Seed ^ 0x13)
	tb := &Table{
		Title:   "Theorem 11: mean interactions, Waiting vs Gathering vs WG(τ*)",
		Columns: []string{"n", "waiting", "gathering", "wg(τ*)", "gathering/wg"},
	}
	var xs, gys, wys []float64
	var lastRatio float64
	var run sweep.Runner
	for _, n := range ns {
		var wWait, wGather, wWG stats.Welford
		tau := algorithms.TauStar(n)
		for i := 0; i < rep; i++ {
			resW, err := playUniform(&run, n, algorithms.Waiting{}, waitingCap(n), src.Uint64())
			if err != nil {
				return nil, err
			}
			resG, err := playUniform(&run, n, algorithms.NewGathering(), gatheringCap(n), src.Uint64())
			if err != nil {
				return nil, err
			}
			resWG, err := playUniform(&run, n, algorithms.WaitingGreedy{Tau: tau}, waitingGreedyCap(n, tau), src.Uint64())
			if err != nil {
				return nil, err
			}
			if !resW.Terminated || !resG.Terminated || !resWG.Terminated {
				return nil, fmt.Errorf("experiments: E13 n=%d some run did not terminate", n)
			}
			wWait.Add(float64(resW.Duration + 1))
			wGather.Add(float64(resG.Duration + 1))
			wWG.Add(float64(resWG.Duration + 1))
		}
		ratio := wGather.Mean() / wWG.Mean()
		lastRatio = ratio
		tb.AddRow(n, wWait.Mean(), wGather.Mean(), wWG.Mean(), ratio)
		xs = append(xs, float64(n))
		gys = append(gys, wGather.Mean())
		wys = append(wys, wWG.Mean())
		cfg.progressf("E13 n=%d g/wg=%.2f\n", n, ratio)
	}
	r.Tables = append(r.Tables, tb)
	r.exponentBand("gathering exponent", xs, gys, 1.85, 2.15)
	r.exponentBand("waiting-greedy exponent", xs, wys, 1.3, 1.85)
	r.check("WG beats Gathering at largest n", lastRatio > 1.2,
		"gathering/wg %.2f", lastRatio, "> 1.2 (meetTime knowledge pays off)")
	return r, nil
}

func e14() Experiment {
	return Experiment{
		ID:         "E14",
		Name:       "Future knowledge: Θ(n log n) under the randomized adversary",
		PaperClaim: "Corollary 1: DODA(future) terminates in Θ(n log n) interactions w.h.p.",
		Run:        runE14,
	}
}

func runE14(cfg Config) (*Report, error) {
	r := &Report{ID: "E14", Name: "Future knowledge: Θ(n log n) under the randomized adversary",
		PaperClaim: "Corollary 1: gossip futures (O(n log n)) then aggregate optimally (O(n log n))"}
	ns := sizes(cfg, []int{12, 16, 24, 32}, []int{16, 32, 64, 128})
	rep := reps(cfg, 25, 100)
	src := rng.New(cfg.Seed ^ 0x14)
	tb := &Table{
		Title:   "Corollary 1: future-optimal duration vs (n-1)H(n-1)",
		Columns: []string{"n", "mean duration", "(n-1)H(n-1)", "ratio"},
	}
	var xs, ys []float64
	for _, n := range ns {
		var w stats.Welford
		for i := 0; i < rep; i++ {
			_, stream, err := adversary.Randomized(n, src.Uint64())
			if err != nil {
				return nil, err
			}
			length := int(10*expectedOffline(n)) + 500
			prefix := stream.Prefix(length)
			know, err := knowledge.NewBundle(knowledge.WithFutures(prefix))
			if err != nil {
				return nil, err
			}
			adv, err := adversary.NewOblivious("randomized-prefix", prefix)
			if err != nil {
				return nil, err
			}
			res, err := core.RunOnce(core.Config{N: n, MaxInteractions: length, Know: know},
				algorithms.NewFutureOptimal(length), adv)
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: E14 n=%d did not terminate", n)
			}
			w.Add(float64(res.Duration + 1))
		}
		expected := expectedOffline(n)
		tb.AddRow(n, w.Mean(), expected, w.Mean()/expected)
		xs = append(xs, float64(n))
		ys = append(ys, w.Mean())
		// Gossip + schedule is a small constant number of broadcast
		// phases: ratio to one convergecast stays bounded.
		r.check(fmt.Sprintf("n=%d within constant of n log n", n),
			stats.WithinFactor(w.Mean(), expected, 5),
			"ratio %.2f", w.Mean()/expected, "within 5x of (n-1)H(n-1)")
		cfg.progressf("E14 n=%d mean=%.0f\n", n, w.Mean())
	}
	// n·H(n) has local log-log slope 1 + 1/H(n) ≈ 1.28 at these sizes;
	// the gossip-completion constant drifts it slightly higher. Anything
	// clearly below Gathering's 2 confirms the Θ(n log n) claim.
	r.exponentBand("future-optimal exponent", xs, ys, 0.9, 1.6)
	r.Tables = append(r.Tables, tb)
	return r, nil
}
