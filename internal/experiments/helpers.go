package experiments

import (
	"fmt"
	"math"

	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
	"doda/internal/stats"
	"doda/internal/sweep"
)

// recording wraps an adversary and materialises the interactions it
// actually emitted, so the offline clock can be evaluated on exactly the
// sequence an adaptive adversary produced.
type recording struct {
	inner core.Adversary
	n     int
	steps []seq.Interaction
}

func newRecording(inner core.Adversary, n int) *recording {
	return &recording{inner: inner, n: n}
}

// Name implements core.Adversary.
func (r *recording) Name() string { return r.inner.Name() + "+recorded" }

// Next implements core.Adversary, recording emissions.
func (r *recording) Next(t int, view core.ExecView) (seq.Interaction, bool) {
	it, ok := r.inner.Next(t, view)
	if ok {
		r.steps = append(r.steps, it)
	}
	return it, ok
}

// Sequence returns the emitted prefix as a finite sequence.
func (r *recording) Sequence() (*seq.Sequence, error) {
	return seq.NewSequence(r.n, r.steps)
}

// coinFlip is a representative oblivious randomized algorithm for the
// Theorem 2 experiment: whenever two data owners meet, it transmits with
// probability p — to the sink when present, otherwise to the
// smaller-identifier node. Memoryless (oblivious) and randomized, exactly
// the class Theorem 2 quantifies over.
type coinFlip struct {
	p   float64
	src *rng.Source
}

func newCoinFlip(p float64, seed uint64) *coinFlip {
	return &coinFlip{p: p, src: rng.New(seed)}
}

// Name implements core.Algorithm.
func (c *coinFlip) Name() string { return fmt.Sprintf("coin-flip(p=%.2f)", c.p) }

// Oblivious implements core.Algorithm.
func (c *coinFlip) Oblivious() bool { return true }

// Setup implements core.Algorithm.
func (c *coinFlip) Setup(*core.Env) error { return nil }

// Decide implements core.Algorithm.
func (c *coinFlip) Decide(env *core.Env, it seq.Interaction, _ int) core.Decision {
	if !c.src.Bernoulli(c.p) {
		return core.NoTransfer
	}
	switch env.Sink {
	case it.U:
		return core.FirstReceives
	case it.V:
		return core.SecondReceives
	default:
		return core.FirstReceives
	}
}

// meanRatioBand checks mean/expected ∈ [lo, hi] and records the verdict.
func (r *Report) meanRatioBand(name string, mean, expected, lo, hi float64) {
	ratio := stats.Ratio(mean, expected)
	r.check(name, ratio >= lo && ratio <= hi, "ratio %.3f", ratio,
		fmt.Sprintf("within [%.2f, %.2f]", lo, hi))
}

// exponentBand fits y ~ x^e on a sweep and checks e ∈ [lo, hi].
func (r *Report) exponentBand(name string, xs, ys []float64, lo, hi float64) {
	fit, err := stats.LogLogFit(xs, ys)
	if err != nil {
		r.check(name, false, "fit error: %v", err, "log-log fit")
		return
	}
	r.check(name, fit.Slope >= lo && fit.Slope <= hi, "exponent %.3f", fit.Slope,
		fmt.Sprintf("within [%.2f, %.2f]", lo, hi))
}

// sizes returns the node-count sweep for the scale.
func sizes(cfg Config, quick, full []int) []int {
	if cfg.scale() == ScaleFull {
		return full
	}
	return quick
}

// reps returns the repetition count for the scale.
func reps(cfg Config, quick, full int) int {
	if cfg.scale() == ScaleFull {
		return full
	}
	return quick
}

// expectedGathering is the paper's exact expectation (n-1)² for the
// Gathering algorithm's interaction count (Theorem 9).
func expectedGathering(n int) float64 {
	return float64(n-1) * float64(n-1)
}

// expectedWaiting is the paper's expectation n(n-1)/2 · H(n-1) for
// Waiting (Theorem 9).
func expectedWaiting(n int) float64 {
	return float64(n) * float64(n-1) / 2 * stats.Harmonic(n-1)
}

// expectedOffline is the paper's expectation (n-1)·H(n-1) for the optimal
// offline algorithm (Theorem 8's broadcast-reversal argument).
func expectedOffline(n int) float64 {
	return float64(n-1) * stats.Harmonic(n-1)
}

// playUniform plays one replica of the paper's randomized adversary (§4)
// at n nodes, seeded with seed, through run: the engine path every
// uniform sweep cell takes, under full provenance.
func playUniform(run *sweep.Runner, n int, alg core.Algorithm, cap int, seed uint64) (core.Result, error) {
	model, err := scenario.NewUniform(n)
	if err != nil {
		return core.Result{}, err
	}
	return run.Replica(model, alg, cap, core.ProvenanceFull, seed)
}

// gatheringCap is a safe interaction budget for Gathering-like runs.
func gatheringCap(n int) int {
	return 10*(n-1)*(n-1) + 4000
}

// waitingCap is a safe interaction budget for Waiting runs.
func waitingCap(n int) int {
	return int(12*expectedWaiting(n)) + 4000
}

// waitingGreedyCap is the interaction budget, and meetTime horizon, of a
// WGτ run: 3τ + 12n².
func waitingGreedyCap(n, tau int) int {
	return 3*tau + 12*n*n
}

// offlineHorizon is a safe window for one optimal convergecast.
func offlineHorizon(n int) int {
	return int(16*expectedOffline(n)) + 256
}

// lnF computes natural log as float of an int.
func lnF(n int) float64 { return math.Log(float64(n)) }
