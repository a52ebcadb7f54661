package main

// The benchmark-regression guard behind -baseline: compare a fresh
// hot-path report against the committed BENCH_hotpath.json and fail when
// any tracked ns metric regresses beyond the tolerance. Only per-unit ns
// figures are tracked — whole-run times (elapsed ms) vary too much with
// machine load to gate on.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// trackedMetrics extracts the regression-guarded ns metrics of a report.
// A zero value means the metric is absent (e.g. an older baseline that
// predates the section) and is skipped by the comparison.
func trackedMetrics(rep *hotpathReport) map[string]float64 {
	return map[string]float64{
		"engine.ns_per_interaction":                           rep.Engine.NsPerInteraction,
		"engine_batched.ns_per_interaction":                   rep.EngineBatched.NsPerInteraction,
		"engine_screened.ns_per_interaction":                  rep.EngineScreened.NsPerInteraction,
		"sim.ns_per_interaction":                              rep.Sim.NsPerInteraction,
		"sim_sharded.ns_per_interaction":                      rep.SimSharded.NsPerInteraction,
		"alias_sampler.ns_per_draw":                           rep.AliasSampler.NsPerDraw,
		"weighted_gen.ns_per_draw":                            rep.WeightedGen.NsPerDraw,
		"large_n.batched_count_ns_per_interaction":            rep.LargeN.BatchedCountNs,
		"sweep_knowledge.ns_per_interaction":                  rep.SweepKnowledge.NsPerInteraction,
		"scenario_gen.edge_markovian_n64_ns_per_interaction":  rep.ScenarioGen.EdgeMarkovianN64Ns,
		"scenario_gen.edge_markovian_n128_ns_per_interaction": rep.ScenarioGen.EdgeMarkovianN128Ns,
		"scenario_gen.churn_uniform_n64_ns_per_interaction":   rep.ScenarioGen.ChurnUniformN64Ns,
		"scenario_gen.community_n64_ns_per_interaction":       rep.ScenarioGen.CommunityN64Ns,
		"scenario_gen.uniform_n512_ns_per_interaction":        rep.ScenarioGen.UniformN512Ns,
		// The no-WAL configuration isolates admission+queue+apply cost.
		"serve_load.ephemeral_ns_per_op": rep.ServeLoad.EphemeralNsPerOp,
	}
}

// compareBaseline prints a metric-by-metric diff of rep against the
// baseline report at path, then the verdict of every absolute gate, and
// returns one error naming every failure: a tracked metric that
// regressed by more than tolerance (a fraction: 0.25 = 25% slower), and
// each gate over its ceiling. Every verdict is printed before it fails,
// so one run shows all that a change broke.
//
// When both reports carry a calibration figure, every fresh metric is
// rescaled by baseline_calibration / fresh_calibration first, so a
// baseline committed from one machine still gates code changes — not raw
// hardware speed — when CI re-measures on different silicon. A baseline
// measured at another GOMAXPROCS is refused outright: the sim sizes its
// shards and spin-wait from it, so no rescaling makes the two compare.
func compareBaseline(rep *hotpathReport, path string, tolerance float64, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base hotpathReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.GoMaxProcs != rep.GoMaxProcs {
		return fmt.Errorf("baseline %s was measured at gomaxprocs %d, the fresh report at %d: figures taken at different settings do not compare",
			path, base.GoMaxProcs, rep.GoMaxProcs)
	}
	scale := 1.0
	if base.CalibrationNs > 0 && rep.CalibrationNs > 0 {
		scale = base.CalibrationNs / rep.CalibrationNs
	}
	baseM, newM := trackedMetrics(&base), trackedMetrics(rep)
	names := make([]string, 0, len(baseM))
	for name := range baseM {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "benchmark regression guard vs %s (tolerance %+.0f%%, machine scale ×%.3f):\n",
		path, tolerance*100, scale)
	var regressions []string
	for _, name := range names {
		bv, nv := baseM[name], newM[name]
		if bv <= 0 || nv <= 0 {
			fmt.Fprintf(w, "  %-52s (skipped: metric missing)\n", name)
			continue
		}
		nv *= scale
		delta := nv/bv - 1
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", name, delta*100))
		}
		fmt.Fprintf(w, "  %-52s %9.2f -> %9.2f ns  (%+6.1f%%)  %s\n", name, bv, nv, delta*100, verdict)
	}
	var failures []string
	if len(regressions) > 0 {
		failures = append(failures, fmt.Sprintf("%d tracked metric(s) regressed more than %.0f%%: %s",
			len(regressions), tolerance*100, strings.Join(regressions, "; ")))
	}
	for _, err := range []error{
		checkProgressOverhead(rep, w),
		checkDensityGate(rep, &base, tolerance, w),
		checkAllocGates(rep, w),
		checkSweepKnowledgeBytes(rep, w),
	} {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gate(s) failed: %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}

// checkDensityGate compares the serve_density memory figures against
// the baseline. Unlike the ns metrics, bytes per instance are
// machine-independent (they move with code and Go version, not clock
// speed), so no calibration rescale applies.
func checkDensityGate(rep, base *hotpathReport, tolerance float64, w io.Writer) error {
	bv, nv := base.ServeDensity.BytesPerInstance, rep.ServeDensity.BytesPerInstance
	const name = "serve_density.bytes_per_instance"
	if bv <= 0 || nv <= 0 {
		fmt.Fprintf(w, "  %-52s (skipped: metric missing)\n", name)
		return nil
	}
	delta := nv/bv - 1
	verdict := "ok"
	if delta > tolerance {
		verdict = "REGRESSION"
	}
	fmt.Fprintf(w, "  %-52s %9.0f -> %9.0f B/instance  (%+6.1f%%)  %s\n", name, bv, nv, delta*100, verdict)
	if delta > tolerance {
		return fmt.Errorf("%s regressed %+.1f%% (%.0f -> %.0f bytes/instance, %d instances under live cap %d)",
			name, delta*100, bv, nv, rep.ServeDensity.Instances, rep.ServeDensity.LiveCap)
	}
	return nil
}

// progressOverheadMax is the absolute ceiling on what the observability
// layer may cost: progress accounting and advisory writes must stay
// under 2% of checkpointed sweep throughput. Unlike the ns metrics this
// gate reads only the fresh report — the overhead is a ratio of two
// runs on the same machine, so no baseline or calibration applies.
const progressOverheadMax = 0.02

func checkProgressOverhead(rep *hotpathReport, w io.Writer) error {
	o := rep.SweepProgress
	if o.Pairs == 0 {
		fmt.Fprintf(w, "  %-52s (skipped: section missing)\n", "sweep_progress_overhead.overhead_frac")
		return nil
	}
	verdict := "ok"
	if o.OverheadFrac > progressOverheadMax {
		verdict = "REGRESSION"
	}
	fmt.Fprintf(w, "  %-52s %+9.2f%% of sweep throughput (ceiling %+.0f%%, %d pairs, ratio IQR %.4f)  %s\n",
		"sweep_progress_overhead.overhead_frac", o.OverheadFrac*100, progressOverheadMax*100, o.Pairs, o.RatioIQR, verdict)
	if o.OverheadFrac > progressOverheadMax {
		return fmt.Errorf("progress instrumentation costs %.1f%% of sweep throughput, ceiling is %.0f%% (median of %d paired ratios; base %.1fms vs instrumented %.1fms over %d cells)",
			o.OverheadFrac*100, progressOverheadMax*100, o.Pairs, o.BaseMs, o.InstrumentedMs, o.Cells)
	}
	return nil
}

// allocsPerRunMax is the absolute ceiling on steady-state heap churn in
// the Reset-reuse interaction loops. Both engines recycle every buffer
// across Reset, so a warmed run allocates nothing; the fractional
// headroom only absorbs one-off growth (a map rehash, a pprof label)
// amortized across the benchmark's many runs, not a real per-run
// allocation. Like the progress gate this reads only the fresh report:
// allocation counts are machine-independent, so no baseline or
// calibration applies.
const allocsPerRunMax = 0.5

func checkAllocGates(rep *hotpathReport, w io.Writer) error {
	sections := []struct {
		name string
		m    perInteraction
	}{
		{"engine", rep.Engine},
		{"engine_batched", rep.EngineBatched},
		{"engine_screened", rep.EngineScreened},
		{"sim", rep.Sim},
		{"sim_sharded", rep.SimSharded},
	}
	var failures []string
	for _, s := range sections {
		if s.m.Runs == 0 {
			fmt.Fprintf(w, "  %-52s (skipped: section missing)\n", s.name+".allocs_per_run")
			continue
		}
		verdict := "ok"
		if s.m.AllocsPerRun > allocsPerRunMax {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s %.1f allocs/run", s.name, s.m.AllocsPerRun))
		}
		fmt.Fprintf(w, "  %-52s %9.2f allocs/run (ceiling %.1f)  %s\n",
			s.name+".allocs_per_run", s.m.AllocsPerRun, allocsPerRunMax, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("steady-state interaction loops must not allocate per run (ceiling %.1f): %s",
			allocsPerRunMax, strings.Join(failures, "; "))
	}
	return nil
}

// sweepKnowledgeBytesMax is the absolute ceiling on what one uniform
// waiting-greedy replica at n=256 allocates through the sweep engine.
// Its meetTime oracle scans a generator and keeps only meeting times;
// caching the scanned stream instead cost about 19 MB per replica. Like
// the allocs gates this reads only the fresh report: bytes are
// machine-independent, so no baseline or calibration applies.
const sweepKnowledgeBytesMax = 64 << 10

func checkSweepKnowledgeBytes(rep *hotpathReport, w io.Writer) error {
	const name = "sweep_knowledge.bytes_per_replica"
	k := rep.SweepKnowledge
	if k.Replicas == 0 {
		fmt.Fprintf(w, "  %-52s (skipped: section missing)\n", name)
		return nil
	}
	verdict := "ok"
	if k.BytesPerReplica > sweepKnowledgeBytesMax {
		verdict = "REGRESSION"
	}
	fmt.Fprintf(w, "  %-52s %9.0f B/replica (ceiling %d)  %s\n", name, k.BytesPerReplica, sweepKnowledgeBytesMax, verdict)
	if k.BytesPerReplica > sweepKnowledgeBytesMax {
		return fmt.Errorf("%s is %.0f B, ceiling is %d B (uniform waiting-greedy, n=%d, %d replicas)",
			name, k.BytesPerReplica, sweepKnowledgeBytesMax, k.N, k.Replicas)
	}
	return nil
}
