package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "E5", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSubsetWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-run", "E5,E1", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Errorf("expected CSV files, got %v", entries)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-scale", "medium"}); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestRunParallelMatchesSequentialVerdicts(t *testing.T) {
	// Experiment numbers derive only from per-experiment seeds, so the
	// parallel path must produce passing reports too.
	if err := run([]string{"-run", "E5,E1,E4", "-parallel", "3", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelAutoWorkers(t *testing.T) {
	if err := run([]string{"-run", "E5", "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
}

// TestHotpathJSON exercises the -json perf-baseline mode end to end and
// pins the zero-allocation contract in the emitted report, and that the
// suite runs at GOMAXPROCS=1 and gives the caller's setting back.
func TestHotpathJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark run skipped in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := run([]string{"-json", path}); err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Errorf("GOMAXPROCS is %d after the suite, want the caller's 3", got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpathReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, raw)
	}
	if rep.Engine.NsPerInteraction <= 0 || rep.Engine.Interactions == 0 {
		t.Errorf("engine section empty: %+v", rep.Engine)
	}
	// The benchmark counter is process-wide, so unrelated goroutines can
	// leak fractional allocations into it; anything ≥ 1 per run is a
	// real hot-path regression (the exact 0-allocs gate lives in
	// internal/core's AllocsPerRun test).
	if rep.Engine.AllocsPerRun >= 1 {
		t.Errorf("engine steady state allocates %v per run, want < 1", rep.Engine.AllocsPerRun)
	}
	if rep.AliasSampler.AllocsPerDraw != 0 {
		t.Errorf("alias draw allocates %v, want 0", rep.AliasSampler.AllocsPerDraw)
	}
	if rep.Sim.NsPerInteraction <= 0 || rep.WeightedGen.NsPerDraw <= 0 {
		t.Errorf("sim/weighted sections empty: %+v / %+v", rep.Sim, rep.WeightedGen)
	}
	if rep.GoMaxProcs != 1 {
		t.Errorf("suite ran at gomaxprocs %d, want 1", rep.GoMaxProcs)
	}
	if rep.EngineBatched.NsPerInteraction <= 0 || rep.EngineBatched.AllocsPerRun >= 1 {
		t.Errorf("batched engine section bad: %+v", rep.EngineBatched)
	}
	if s := rep.EngineScreened; s.N != 512 || s.NsPerInteraction <= 0 || s.Interactions == 0 || s.AllocsPerRun >= 1 {
		t.Errorf("screened engine section bad: %+v", s)
	}
	if rep.LargeN.N != 4096 || rep.LargeN.BatchedCountNs <= 0 || rep.LargeN.BatchedCountPerSec <= 0 {
		t.Errorf("large-n section bad: %+v", rep.LargeN)
	}
	if rep.SweepProgress.Pairs == 0 || rep.SweepProgress.Cells == 0 ||
		rep.SweepProgress.BaseMs <= 0 || rep.SweepProgress.InstrumentedMs <= 0 {
		t.Errorf("progress-overhead section bad: %+v", rep.SweepProgress)
	}
	if rep.ServeLoad.Instances == 0 || rep.ServeLoad.EphemeralNsPerOp <= 0 {
		t.Errorf("serve-load section bad: %+v", rep.ServeLoad)
	}
	if g := rep.ScenarioGen; g.EdgeMarkovianN64Ns <= 0 || g.EdgeMarkovianN128Ns <= 0 || g.ChurnUniformN64Ns <= 0 || g.CommunityN64Ns <= 0 || g.UniformN512Ns <= 0 {
		t.Errorf("scenario-gen section bad: %+v", g)
	}
	t.Logf("sweep_progress_overhead: %+v", rep.SweepProgress)
	t.Logf("serve_load: %+v", rep.ServeLoad)
}

// TestCompareBaseline unit-tests the regression guard against synthetic
// reports: an improvement passes, a >tolerance regression fails, and a
// missing metric is skipped rather than failing.
func TestCompareBaseline(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{}
	base.Engine.NsPerInteraction = 100
	base.EngineBatched.NsPerInteraction = 80
	base.Sim.NsPerInteraction = 1000
	base.AliasSampler.NsPerDraw = 10
	base.WeightedGen.NsPerDraw = 20
	// LargeN left zero: the baseline predates the section → skipped.
	basePath := filepath.Join(dir, "base.json")
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := base
	fresh.Engine.NsPerInteraction = 110 // +10%: inside tolerance
	fresh.LargeN.BatchedCountNs = 15
	var out strings.Builder
	if err := compareBaseline(&fresh, basePath, 0.25, &out); err != nil {
		t.Errorf("within-tolerance report failed: %v\n%s", err, out.String())
	}

	slow := base
	slow.Sim.NsPerInteraction = 1500 // +50%: regression
	out.Reset()
	err = compareBaseline(&slow, basePath, 0.25, &out)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "sim.ns_per_interaction") {
		t.Errorf("error %q does not name the regressed metric", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION marker:\n%s", out.String())
	}

	if err := compareBaseline(&fresh, filepath.Join(dir, "missing.json"), 0.25, &out); err == nil {
		t.Error("missing baseline file must fail")
	}
}

// TestCompareBaselineCalibration checks the cross-machine rescaling: a
// uniformly slower machine (every metric and the calibration loop 2×
// slower) is not a regression, while a metric that lags its machine is.
func TestCompareBaselineCalibration(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{CalibrationNs: 10}
	base.Engine.NsPerInteraction = 100
	base.Sim.NsPerInteraction = 1000
	basePath := filepath.Join(dir, "base.json")
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	slowMachine := hotpathReport{CalibrationNs: 20}
	slowMachine.Engine.NsPerInteraction = 200
	slowMachine.Sim.NsPerInteraction = 2000
	var out strings.Builder
	if err := compareBaseline(&slowMachine, basePath, 0.25, &out); err != nil {
		t.Errorf("uniformly slower machine flagged as regression: %v\n%s", err, out.String())
	}

	realRegression := slowMachine
	realRegression.Engine.NsPerInteraction = 300 // 1.5× its own machine
	out.Reset()
	if err := compareBaseline(&realRegression, basePath, 0.25, &out); err == nil {
		t.Errorf("machine-relative regression not detected:\n%s", out.String())
	}
}

// TestCompareBaselineGOMAXPROCS checks that the guard refuses a
// baseline measured at another GOMAXPROCS than the fresh report, naming
// both settings, and compares reports taken at one setting as before.
func TestCompareBaselineGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{GoMaxProcs: 2}
	base.Engine.NsPerInteraction = 100
	base.EngineScreened = perInteraction{N: 512, Runs: 10, NsPerInteraction: 8}
	basePath := filepath.Join(dir, "base.json")
	if err := writeReportJSON(&base, basePath); err != nil {
		t.Fatal(err)
	}
	fresh := base
	fresh.GoMaxProcs = 1
	var out strings.Builder
	err := compareBaseline(&fresh, basePath, 0.25, &out)
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs 2") || !strings.Contains(err.Error(), "at 1") {
		t.Errorf("baseline at 2 against a report at 1: got %v, want an error naming both", err)
	}

	fresh.GoMaxProcs = 2
	out.Reset()
	if err := compareBaseline(&fresh, basePath, 0.25, &out); err != nil {
		t.Errorf("equal settings failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "engine_screened.ns_per_interaction") || !strings.Contains(out.String(), "engine_screened.allocs_per_run") {
		t.Errorf("guard does not compare the screened engine:\n%s", out.String())
	}
	slow := fresh
	slow.EngineScreened.NsPerInteraction = 12 // +50%
	slow.EngineScreened.AllocsPerRun = 2
	out.Reset()
	err = compareBaseline(&slow, basePath, 0.25, &out)
	if err == nil || !strings.Contains(err.Error(), "engine_screened.ns_per_interaction") || !strings.Contains(err.Error(), "engine_screened 2.0 allocs/run") {
		t.Errorf("slow, allocating screened engine passed: %v\n%s", err, out.String())
	}
}

// TestProgressOverheadGate unit-tests the absolute observability-cost
// ceiling: a report over the 2% line fails regardless of baseline, one
// under it passes, and a baseline predating the section is skipped.
func TestProgressOverheadGate(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{}
	base.Engine.NsPerInteraction = 100
	basePath := filepath.Join(dir, "base.json")
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := base
	fresh.SweepProgress = sweepProgressOverhead{Cells: 12, Pairs: 12, BaseMs: 100, InstrumentedMs: 101, OverheadFrac: 0.01}
	var out strings.Builder
	if err := compareBaseline(&fresh, basePath, 0.25, &out); err != nil {
		t.Errorf("1%% overhead failed the 2%% gate: %v\n%s", err, out.String())
	}

	hot := fresh
	hot.SweepProgress.InstrumentedMs = 110
	hot.SweepProgress.OverheadFrac = 0.10
	out.Reset()
	err = compareBaseline(&hot, basePath, 0.25, &out)
	if err == nil || !strings.Contains(err.Error(), "progress instrumentation") {
		t.Errorf("10%% overhead passed the gate: %v\n%s", err, out.String())
	}

	// No section at all (an old report): skipped, not failed.
	out.Reset()
	if err := compareBaseline(&base, basePath, 0.25, &out); err != nil {
		t.Errorf("missing section failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "skipped") {
		t.Errorf("missing section not reported as skipped:\n%s", out.String())
	}
}

// TestSweepKnowledgeBytesGate unit-tests the absolute ceiling on what a
// waiting-greedy sweep replica allocates: a report under 64 KiB passes
// regardless of baseline, one over it fails, and a report without the
// section is skipped.
func TestSweepKnowledgeBytesGate(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{}
	base.Engine.NsPerInteraction = 100
	basePath := filepath.Join(dir, "base.json")
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	lean := base
	lean.SweepKnowledge = sweepKnowledgeReport{N: 256, Replicas: 20, Workers: 1, NsPerInteraction: 30, BytesPerReplica: 20 << 10}
	var out strings.Builder
	if err := compareBaseline(&lean, basePath, 0.25, &out); err != nil {
		t.Errorf("20 KiB per replica failed the 64 KiB gate: %v\n%s", err, out.String())
	}

	cached := lean
	cached.SweepKnowledge.BytesPerReplica = 19 << 20
	out.Reset()
	err = compareBaseline(&cached, basePath, 0.25, &out)
	if err == nil || !strings.Contains(err.Error(), "sweep_knowledge.bytes_per_replica") {
		t.Errorf("19 MiB per replica passed the gate: %v\n%s", err, out.String())
	}

	out.Reset()
	if err := compareBaseline(&base, basePath, 0.25, &out); err != nil {
		t.Errorf("missing section failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "sweep_knowledge.bytes_per_replica") || !strings.Contains(out.String(), "skipped") {
		t.Errorf("missing section not reported as skipped:\n%s", out.String())
	}
}

// TestScenarioGenGuard checks that the scenario_gen section is written
// under its keys, that the committed baseline carries it, and that the
// regression guard compares each of its generators: a generator more
// than the tolerance slower fails, naming the figure.
func TestScenarioGenGuard(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{}
	base.ScenarioGen = scenarioGenReport{PUp: 0.05, PDown: 0.2, PFail: 0.1, PRecover: 0.1, Communities: 4, PIntra: 0.9,
		EdgeMarkovianN64Ns: 2000, EdgeMarkovianN128Ns: 10000, ChurnUniformN64Ns: 300, CommunityN64Ns: 60, UniformN512Ns: 10}
	basePath := filepath.Join(dir, "base.json")
	if err := writeReportJSON(&base, basePath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		"scenario_gen.edge_markovian_n64_ns_per_interaction",
		"scenario_gen.edge_markovian_n128_ns_per_interaction",
		"scenario_gen.churn_uniform_n64_ns_per_interaction",
		"scenario_gen.community_n64_ns_per_interaction",
		"scenario_gen.uniform_n512_ns_per_interaction",
	}
	for _, name := range names {
		key := `"` + strings.TrimPrefix(name, "scenario_gen.") + `"`
		if !strings.Contains(string(raw), `"scenario_gen": {`) || !strings.Contains(string(raw), key) {
			t.Errorf("report lacks %s:\n%s", name, raw)
		}
	}

	committed, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpathReport
	if err := json.Unmarshal(committed, &rep); err != nil {
		t.Fatal(err)
	}
	tracked := trackedMetrics(&rep)
	for _, name := range names {
		if tracked[name] <= 0 {
			t.Errorf("committed baseline does not gate %s", name)
		}
	}

	fresh := base
	fresh.ScenarioGen.EdgeMarkovianN128Ns = 11000 // +10%: inside tolerance
	var out strings.Builder
	if err := compareBaseline(&fresh, basePath, 0.25, &out); err != nil {
		t.Errorf("within-tolerance report failed: %v\n%s", err, out.String())
	}
	for _, name := range names {
		if !strings.Contains(out.String(), name) {
			t.Errorf("guard output does not compare %s:\n%s", name, out.String())
		}
	}
	for i, name := range names {
		slow := base
		switch i {
		case 0:
			slow.ScenarioGen.EdgeMarkovianN64Ns *= 1.5
		case 1:
			slow.ScenarioGen.EdgeMarkovianN128Ns *= 1.5
		case 2:
			slow.ScenarioGen.ChurnUniformN64Ns *= 1.5
		case 3:
			slow.ScenarioGen.CommunityN64Ns *= 1.5
		case 4:
			slow.ScenarioGen.UniformN512Ns *= 1.5
		}
		out.Reset()
		err := compareBaseline(&slow, basePath, 0.25, &out)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("50%% slower %s passed the guard: %v\n%s", name, err, out.String())
		}
	}
}

// TestCompareBaselineNamesEveryFailure checks that the guard evaluates
// every gate before it fails: a report that fails one ns gate and one
// alloc gate prints both verdicts and returns one error naming both, and
// still prints the verdict of the gates after them.
func TestCompareBaselineNamesEveryFailure(t *testing.T) {
	dir := t.TempDir()
	base := hotpathReport{}
	base.Engine = perInteraction{Runs: 10, NsPerInteraction: 100}
	base.Sim = perInteraction{Runs: 10, NsPerInteraction: 1000}
	base.SweepKnowledge = sweepKnowledgeReport{N: 256, Replicas: 20, Workers: 1, NsPerInteraction: 30, BytesPerReplica: 20 << 10}
	basePath := filepath.Join(dir, "base.json")
	if err := writeReportJSON(&base, basePath); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Sim.NsPerInteraction = 1500 // +50%
	bad.Engine.AllocsPerRun = 3
	var out strings.Builder
	err := compareBaseline(&bad, basePath, 0.25, &out)
	if err == nil {
		t.Fatalf("two failing gates passed:\n%s", out.String())
	}
	for _, name := range []string{"sim.ns_per_interaction", "engine 3.0 allocs/run"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if got := strings.Count(out.String(), "REGRESSION"); got != 2 {
		t.Errorf("%d REGRESSION verdicts printed, want 2:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "sweep_knowledge.bytes_per_replica") {
		t.Errorf("the gate after the failures printed no verdict:\n%s", out.String())
	}
}

// TestBaselineRequiresJSON pins the flag contract.
func TestBaselineRequiresJSON(t *testing.T) {
	if err := run([]string{"-baseline", "BENCH_hotpath.json"}); err == nil {
		t.Error("-baseline without -json should fail")
	}
}

// TestReportAtomicWrite checks that a pre-existing report is replaced via
// rename, no .tmp file survives, and a write failure leaves the old file
// untouched.
func TestReportAtomicWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &hotpathReport{GoMaxProcs: 3}
	if err := writeReportJSON(rep, path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got hotpathReport
	if err := json.Unmarshal(raw, &got); err != nil || got.GoMaxProcs != 3 {
		t.Fatalf("rewritten report bad: %v\n%s", err, raw)
	}

	// A path whose temp file cannot be created must not touch the report.
	bad := filepath.Join(t.TempDir(), "no-such-dir", "report.json")
	if err := writeReportJSON(rep, bad); err == nil {
		t.Error("unwritable path should fail")
	}
}
