package experiments

// Extension experiments beyond the paper's stated results:
//
//   X1 makes the paper's concluding open question 3 executable — "can
//   randomized adversaries that use a non-uniform probabilistic
//   distribution alter significantly the bounds presented here?" — by
//   sweeping skewed interaction distributions.
//
//   X2 summarises the paper's whole message in one table: the knowledge
//   hierarchy. More knowledge, strictly faster aggregation:
//   none (Waiting, Gathering) → meetTime (Waiting Greedy) → future
//   (future-gossip) → full sequence (offline optimum).

import (
	"fmt"
	"strings"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
	"doda/internal/stats"
	"doda/internal/sweep"
)

// formatMeans renders a slice of means compactly for check messages.
func formatMeans(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = formatFloat(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func x1() Experiment {
	return Experiment{
		ID:         "X1",
		Name:       "Non-uniform randomized adversaries (open question 3)",
		PaperClaim: "§5 Q3: do non-uniform interaction distributions alter the bounds? (empirical answer: yes, via sink reachability)",
		Run:        runX1,
	}
}

func runX1(cfg Config) (*Report, error) {
	r := &Report{ID: "X1", Name: "Non-uniform randomized adversaries (open question 3)",
		PaperClaim: "§5 Q3: skewing the interaction distribution rescales the n² bounds by the sink's contact probability"}
	n := 64
	if cfg.scale() == ScaleFull {
		n = 128
	}
	rep := reps(cfg, 80, 250)
	src := rng.New(cfg.Seed ^ 0x51)
	budget := 40 * waitingCap(n)
	var play sweep.Runner
	waiting, gathering := algorithms.Waiting{}, algorithms.NewGathering()

	// Part A: scale only the sink's weight. Waiting's expectation is a
	// sum of geometric sink-meeting times, so its mean must scale
	// inversely with the sink's contact probability.
	tbA := &Table{
		Title:   fmt.Sprintf("Sink-weight sweep at n=%d (weights uniform except the sink)", n),
		Columns: []string{"sink factor", "waiting mean", "gathering mean", "waiting vs uniform"},
	}
	factors := []float64{0.25, 1, 4}
	waitingMeans := make([]float64, 0, len(factors))
	var uniformWaiting float64
	for _, factor := range factors {
		ws, err := adversary.SinkScaledWeights(n, 0, factor)
		if err != nil {
			return nil, err
		}
		model := sinkScaled{ws: ws}
		var wWait, wGather stats.Welford
		for i := 0; i < rep; i++ {
			resW, err := play.Replica(model, waiting, budget, core.ProvenanceFull, src.Uint64())
			if err != nil {
				return nil, err
			}
			resG, err := play.Replica(model, gathering, budget, core.ProvenanceFull, src.Uint64())
			if err != nil {
				return nil, err
			}
			if !resW.Terminated || !resG.Terminated {
				return nil, fmt.Errorf("experiments: X1 factor=%v did not terminate", factor)
			}
			wWait.Add(float64(resW.Duration + 1))
			wGather.Add(float64(resG.Duration + 1))
		}
		if factor == 1 {
			uniformWaiting = wWait.Mean()
		}
		waitingMeans = append(waitingMeans, wWait.Mean())
		tbA.AddRow(factor, wWait.Mean(), wGather.Mean(), "-")
		cfg.progressf("X1 factor=%v waiting=%.0f\n", factor, wWait.Mean())
	}
	// Fill the comparison column now that the uniform baseline is known.
	for i := range tbA.Rows {
		tbA.Rows[i][3] = formatFloat(waitingMeans[i] / uniformWaiting)
	}
	r.Tables = append(r.Tables, tbA)
	r.check("waiting is monotone in sink reachability",
		waitingMeans[0] > waitingMeans[1] && waitingMeans[1] > waitingMeans[2],
		"means %s", formatMeans(waitingMeans), "strictly decreasing in the sink factor")
	// A 4x easier sink should speed Waiting up by roughly the same
	// factor (each term of the paper's sum is a geometric sink-meeting
	// time): accept 2x-8x.
	speedup := waitingMeans[1] / waitingMeans[2]
	r.check("4x sink weight gives ~4x waiting speedup",
		speedup > 2 && speedup < 8,
		"speedup %.2f", speedup, "within [2, 8] (≈4 expected)")

	// Part B: Zipf-distributed weights with the sink as the heaviest
	// node. The sink becomes easier to reach than under uniform, so
	// aggregation accelerates — the bounds are not distribution-free.
	tbB := &Table{
		Title:   fmt.Sprintf("Zipf sweep at n=%d (w_i = (i+1)^-α, sink = heaviest node)", n),
		Columns: []string{"alpha", "gathering mean", "vs uniform (n-1)²"},
	}
	alphas := []float64{0, 0.5, 1}
	gatherMeans := make([]float64, 0, len(alphas))
	for _, alpha := range alphas {
		model, err := scenario.NewZipf(n, alpha)
		if err != nil {
			return nil, err
		}
		var w stats.Welford
		for i := 0; i < rep; i++ {
			res, err := play.Replica(model, gathering, budget, core.ProvenanceFull, src.Uint64())
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: X1 alpha=%v did not terminate", alpha)
			}
			w.Add(float64(res.Duration + 1))
		}
		gatherMeans = append(gatherMeans, w.Mean())
		tbB.AddRow(alpha, w.Mean(), w.Mean()/expectedGathering(n))
		cfg.progressf("X1 alpha=%v gathering=%.0f\n", alpha, w.Mean())
	}
	r.Tables = append(r.Tables, tbB)
	r.check("heavy sink accelerates gathering",
		gatherMeans[len(gatherMeans)-1] < gatherMeans[0],
		"means %s", formatMeans(gatherMeans), "alpha=1 below alpha=0 (uniform)")
	r.note("answer to §5 Q3: yes — the Θ(n²) constants follow the sink's contact probability, so non-uniform adversaries rescale every randomized bound")
	return r, nil
}

// sinkScaled is X1's part A model: adversary.SinkScaledWeights drawn
// the way adversary.Weighted draws them.
type sinkScaled struct{ ws []float64 }

func (m sinkScaled) Name() string { return "sink-scaled" }
func (m sinkScaled) N() int       { return len(m.ws) }

func (m sinkScaled) Generator(src *rng.Source) func(t int) seq.Interaction {
	gen, err := adversary.WeightedGen(m.ws, src)
	if err != nil {
		// Unreachable: SinkScaledWeights returns valid weights.
		panic(err)
	}
	return gen
}

func x2() Experiment {
	return Experiment{
		ID:         "X2",
		Name:       "The knowledge hierarchy in one table",
		PaperClaim: "More knowledge, faster aggregation: none → meetTime → future → full sequence",
		Run:        runX2,
	}
}

func runX2(cfg Config) (*Report, error) {
	r := &Report{ID: "X2", Name: "The knowledge hierarchy in one table",
		PaperClaim: "Θ(n²) with no knowledge (Cor. 2), Θ(n^{3/2}√log n) with meetTime (Thm 11), Θ(n log n) with future (Cor. 1) or full knowledge (Thm 8)"}
	n := 48
	if cfg.scale() == ScaleFull {
		n = 128
	}
	rep := reps(cfg, 40, 150)
	src := rng.New(cfg.Seed ^ 0x52)
	tb := &Table{
		Title:   fmt.Sprintf("Mean interactions to aggregate at n=%d (%d runs each)", n, rep),
		Columns: []string{"algorithm", "knowledge", "mean interactions", "theory"},
	}

	type rung struct {
		name   string
		know   string
		theory string
		run    func(seed uint64) (core.Result, error)
	}
	horizon := int(12*expectedOffline(n)) + 1000
	tau := algorithms.TauStar(n)
	var play sweep.Runner
	rungs := []rung{
		{name: "waiting", know: "none", theory: "n(n-1)/2·H(n-1)", run: func(seed uint64) (core.Result, error) {
			return playUniform(&play, n, algorithms.Waiting{}, waitingCap(n), seed)
		}},
		{name: "gathering", know: "none", theory: "(n-1)²", run: func(seed uint64) (core.Result, error) {
			return playUniform(&play, n, algorithms.NewGathering(), gatheringCap(n), seed)
		}},
		{name: "waiting-greedy(τ*)", know: "meetTime", theory: "n^{3/2}√log n", run: func(seed uint64) (core.Result, error) {
			return playUniform(&play, n, algorithms.WaitingGreedy{Tau: tau}, waitingGreedyCap(n, tau), seed)
		}},
		{name: "future-optimal", know: "future", theory: "Θ(n log n)", run: func(seed uint64) (core.Result, error) {
			_, stream, err := adversary.Randomized(n, seed)
			if err != nil {
				return core.Result{}, err
			}
			prefix := stream.Prefix(horizon)
			know, err := knowledge.NewBundle(knowledge.WithFutures(prefix))
			if err != nil {
				return core.Result{}, err
			}
			adv, err := adversary.NewOblivious("randomized-prefix", prefix)
			if err != nil {
				return core.Result{}, err
			}
			return core.RunOnce(core.Config{N: n, MaxInteractions: horizon, Know: know},
				algorithms.NewFutureOptimal(horizon), adv)
		}},
		{name: "full-knowledge", know: "full sequence", theory: "(n-1)·H(n-1)", run: func(seed uint64) (core.Result, error) {
			adv, stream, err := adversary.Randomized(n, seed)
			if err != nil {
				return core.Result{}, err
			}
			know, err := knowledge.NewBundle(knowledge.WithFullSequence(stream))
			if err != nil {
				return core.Result{}, err
			}
			return core.RunOnce(core.Config{N: n, MaxInteractions: horizon, Know: know},
				algorithms.NewFullKnowledge(horizon), adv)
		}},
	}

	means := make([]float64, 0, len(rungs))
	for _, rg := range rungs {
		var w stats.Welford
		for i := 0; i < rep; i++ {
			res, err := rg.run(src.Uint64())
			if err != nil {
				return nil, err
			}
			if !res.Terminated {
				return nil, fmt.Errorf("experiments: X2 %s did not terminate", rg.name)
			}
			w.Add(float64(res.Duration + 1))
		}
		means = append(means, w.Mean())
		tb.AddRow(rg.name, rg.know, w.Mean(), rg.theory)
		cfg.progressf("X2 %s mean=%.0f\n", rg.name, w.Mean())
	}
	r.Tables = append(r.Tables, tb)
	for i := 1; i < len(rungs); i++ {
		r.check(fmt.Sprintf("%s faster than %s", rungs[i].name, rungs[i-1].name),
			means[i] < means[i-1],
			"%.0f", means[i], fmt.Sprintf("< %.0f", means[i-1]))
	}
	return r, nil
}
