package main

// Hot-path micro-benchmarks behind the -json flag: the perf trajectory
// file BENCH_hotpath.json records ns/op and allocs/op for the engine's
// steady-state interaction loop (scalar, batched and screened), the
// concurrent runtime, the alias sampler, the large-n engine, the sweep
// engine's progress overhead and its waiting-greedy cells, and the
// scenario generators, so future changes have a baseline to compare
// against (see compare.go for the regression guard).

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/chaos"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
	"doda/internal/sim"
	"doda/internal/stats"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// perInteraction reports one measured interaction loop.
type perInteraction struct {
	N                    int     `json:"n"`
	Runs                 int     `json:"runs"`
	Interactions         int64   `json:"interactions"`
	NsPerInteraction     float64 `json:"ns_per_interaction"`
	AllocsPerInteraction float64 `json:"allocs_per_interaction"`
	AllocsPerRun         float64 `json:"allocs_per_run"`
}

// perDraw reports the sampler benchmark.
type perDraw struct {
	Outcomes      int     `json:"outcomes"`
	NsPerDraw     float64 `json:"ns_per_draw"`
	AllocsPerDraw float64 `json:"allocs_per_draw"`
}

// largeNReport times the batched count-only engine on one large-n
// workload run to termination.
type largeNReport struct {
	N                  int     `json:"n"`
	Interactions       int64   `json:"interactions"`
	BatchedCountNs     float64 `json:"batched_count_ns_per_interaction"`
	BatchedCountPerSec float64 `json:"batched_count_interactions_per_sec"`
}

// sweepProgressOverhead reports what the observability layer costs: the
// same checkpointed fleet run with progress tracking disabled and with
// the default throttled progress record, in back-to-back pairs. Each
// pair gives one ratio, instrumented over base time; OverheadFrac is
// their median less one (floored at zero) and RatioIQR the distance
// between their quartiles. BaseMs and InstrumentedMs are each side's
// median trial. OverheadFrac is gated absolutely (not baseline-relative)
// in compare.go: the per-replica accounting and throttled advisory
// writes must stay under 2% of sweep throughput, or watching a fleet
// would slow the fleet down.
type sweepProgressOverhead struct {
	Cells           int     `json:"cells"`
	Pairs           int     `json:"pairs"`
	BaseMs          float64 `json:"base_ms"`
	InstrumentedMs  float64 `json:"instrumented_ms"`
	BaseCellsPerSec float64 `json:"base_cells_per_sec"`
	OverheadFrac    float64 `json:"overhead_frac"`
	RatioIQR        float64 `json:"ratio_iqr"`
}

// sweepKnowledgeReport times one uniform waiting-greedy cell through the
// sweep engine at one worker. NsPerInteraction is per played interaction
// and includes the meetTime oracle's look-ahead scan; it is
// regression-guarded like the engine figures. BytesPerReplica is
// everything the timed run allocated over its replicas, gated absolutely
// in compare.go.
type sweepKnowledgeReport struct {
	N                int     `json:"n"`
	Replicas         int     `json:"replicas"`
	Workers          int     `json:"workers"`
	Interactions     float64 `json:"interactions"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
	BytesPerReplica  float64 `json:"bytes_per_replica"`
}

// scenarioGenReport times the scenario generators the sweeps run, per
// generated interaction: S1's edge-Markovian at n=64 and n=128, churn
// over uniform contacts at n=64 and community at n=64, and the uniform
// model at n=512, the scaling grid's largest size, each the fastest of
// repeated runs of at least a second. The edge-Markovian figures are
// dominated by the per-tick Bernoulli flips of every potential edge,
// churn's by its per-node availability flips and the inner draws they
// reject, community's and uniform's by their pair draw. The ns figures
// are regression-guarded like the engine's.
type scenarioGenReport struct {
	PUp                 float64 `json:"p_up"`
	PDown               float64 `json:"p_down"`
	PFail               float64 `json:"p_fail"`
	PRecover            float64 `json:"p_recover"`
	Communities         int     `json:"communities"`
	PIntra              float64 `json:"p_intra"`
	EdgeMarkovianN64Ns  float64 `json:"edge_markovian_n64_ns_per_interaction"`
	EdgeMarkovianN128Ns float64 `json:"edge_markovian_n128_ns_per_interaction"`
	ChurnUniformN64Ns   float64 `json:"churn_uniform_n64_ns_per_interaction"`
	CommunityN64Ns      float64 `json:"community_n64_ns_per_interaction"`
	UniformN512Ns       float64 `json:"uniform_n512_ns_per_interaction"`
}

// hotpathReport is the BENCH_hotpath.json document. CalibrationNs is a
// fixed pure-CPU reference loop (rng.Uint64) measured alongside the
// tracked metrics: the regression guard divides out the ratio of the two
// reports' calibrations, so comparing a laptop baseline against a CI
// runner gates on code changes rather than on hardware identity.
type hotpathReport struct {
	GoMaxProcs     int                   `json:"gomaxprocs"`
	CalibrationNs  float64               `json:"calibration_ns"`
	Engine         perInteraction        `json:"engine"`
	EngineBatched  perInteraction        `json:"engine_batched"`
	EngineScreened perInteraction        `json:"engine_screened"`
	Sim            perInteraction        `json:"sim"`
	SimSharded     perInteraction        `json:"sim_sharded"`
	AliasSampler   perDraw               `json:"alias_sampler"`
	WeightedGen    perDraw               `json:"weighted_gen"`
	LargeN         largeNReport          `json:"large_n"`
	SweepProgress  sweepProgressOverhead `json:"sweep_progress_overhead"`
	SweepKnowledge sweepKnowledgeReport  `json:"sweep_knowledge"`
	ScenarioGen    scenarioGenReport     `json:"scenario_gen"`
	ServeLoad      serveLoadReport       `json:"serve_load"`
	ServeDensity   serveDensityReport    `json:"serve_density"`
}

// nextOnly embeds only core.Adversary, so it hides NextBatch: the engine
// plays the wrapped adversary one Next call at a time, the path every
// adaptive adversary takes.
type nextOnly struct{ core.Adversary }

// benchEngine measures the sequential engine's steady-state interaction
// cost: engine reuse via Reset, generated uniform adversary, Gathering.
// batched keeps the adversary's BatchAdversary drain path; otherwise the
// adversary runs behind nextOnly, on the per-interaction Next path.
func benchEngine(n int, batched bool) (perInteraction, error) {
	var adv core.Adversary
	adv, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(1)))
	if err != nil {
		return perInteraction{}, err
	}
	if !batched {
		adv = nextOnly{adv}
	}
	return benchRuns(n, algorithms.NewGathering(), adv)
}

// benchEngineScreened measures the screened drain path as the sweep's
// uniform cells play it: Waiting against adversary.Uniform, which hands
// the engine only interactions between two data owners, with benchEngine's
// set-up. The figure is per consumed interaction, skipped ones included,
// and the fastest of three runs: on a shared host one run in a process
// read up to 1.45 times the others.
func benchEngineScreened(n int) (perInteraction, error) {
	adv, err := adversary.NewUniform("uniform", n, rng.New(1))
	if err != nil {
		return perInteraction{}, err
	}
	var best perInteraction
	for trial := 0; trial < 3; trial++ {
		rep, err := benchRuns(n, algorithms.Waiting{}, adv)
		if err != nil {
			return perInteraction{}, err
		}
		if trial == 0 || rep.NsPerInteraction < best.NsPerInteraction {
			best = rep
		}
	}
	return best, nil
}

// benchRuns times whole runs of alg against adv on one engine re-armed
// by Reset, with one adversary across all of them, as a sweep worker
// reuses its engine.
func benchRuns(n int, alg core.Algorithm, adv core.Adversary) (perInteraction, error) {
	cfg := core.Config{N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return perInteraction{}, err
	}
	var interactions int64
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		interactions = 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.Reset(cfg); err != nil {
				benchErr = err
				return
			}
			out, err := eng.Run(alg, adv)
			if err != nil {
				benchErr = err
				return
			}
			interactions += int64(out.Interactions)
		}
	})
	if benchErr != nil {
		return perInteraction{}, benchErr
	}
	return reduce(n, res, interactions), nil
}

// benchSim measures the concurrent sharded runtime's steady-state
// per-interaction cost, mirroring benchEngine: one persistent runtime
// (worker fleet included) re-armed via Reset per run, one endless
// generated adversary — so the figure tracks the scheduler's hot path,
// not per-run construction, exactly like the engine figure it is
// compared against. shards = 0 takes the auto default.
func benchSim(n, shards int) (perInteraction, error) {
	cfg := sim.Config{N: n, MaxInteractions: 400*n*n + 4000, Shards: shards}
	rt, err := sim.NewRuntime(cfg)
	if err != nil {
		return perInteraction{}, err
	}
	defer rt.Close()
	gen, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(1)))
	if err != nil {
		return perInteraction{}, err
	}
	// Hoisted interface conversions: boxing per run would be measured as
	// a scheduler allocation.
	var adv core.Adversary = gen
	var alg core.Algorithm = algorithms.NewGathering()
	var interactions int64
	var benchErr error
	res := testing.Benchmark(func(b *testing.B) {
		interactions = 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rt.Reset(cfg); err != nil {
				benchErr = err
				return
			}
			out, err := rt.Run(alg, adv)
			if err != nil {
				benchErr = err
				return
			}
			interactions += int64(out.Interactions)
		}
	})
	if benchErr != nil {
		return perInteraction{}, benchErr
	}
	return reduce(n, res, interactions), nil
}

// reduce converts a BenchmarkResult over whole runs into per-interaction
// figures.
func reduce(n int, res testing.BenchmarkResult, interactions int64) perInteraction {
	out := perInteraction{N: n, Runs: res.N, Interactions: interactions}
	if interactions > 0 {
		out.NsPerInteraction = float64(res.T.Nanoseconds()) / float64(interactions)
		out.AllocsPerInteraction = float64(res.MemAllocs) / float64(interactions)
	}
	if res.N > 0 {
		out.AllocsPerRun = float64(res.MemAllocs) / float64(res.N)
	}
	return out
}

// benchAlias measures one alias-table draw.
func benchAlias(outcomes int) (perDraw, error) {
	ws, err := adversary.ZipfWeights(outcomes, 1)
	if err != nil {
		return perDraw{}, err
	}
	table, err := rng.NewAlias(ws)
	if err != nil {
		return perDraw{}, err
	}
	src := rng.New(2)
	sink := 0
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += table.Draw(src)
		}
	})
	_ = sink
	return perDraw{
		Outcomes:      outcomes,
		NsPerDraw:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerDraw: float64(res.AllocsPerOp()),
	}, nil
}

// benchWeightedGen measures one full weighted interaction draw (two alias
// draws plus the without-replacement rejection).
func benchWeightedGen(n int) (perDraw, error) {
	ws, err := adversary.ZipfWeights(n, 1)
	if err != nil {
		return perDraw{}, err
	}
	gen, err := adversary.WeightedGen(ws, rng.New(3))
	if err != nil {
		return perDraw{}, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen(i)
		}
	})
	return perDraw{
		Outcomes:      n,
		NsPerDraw:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerDraw: float64(res.AllocsPerOp()),
	}, nil
}

// benchLargeN plays one seeded uniform Gathering run at large n to
// termination through the batched engine with count-only provenance, and
// times it.
func benchLargeN(n int) (largeNReport, error) {
	cfg := core.Config{
		N: n, MaxInteractions: 400*n*n + 4000, VerifyAggregate: true,
		Provenance: core.ProvenanceCount,
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return largeNReport{}, err
	}
	adv, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(5)))
	if err != nil {
		return largeNReport{}, err
	}
	start := time.Now()
	out, err := eng.Run(algorithms.NewGathering(), adv)
	elapsed := time.Since(start)
	if err != nil {
		return largeNReport{}, err
	}
	if !out.Terminated {
		return largeNReport{}, fmt.Errorf("large-n run (n=%d) did not terminate", n)
	}
	rep := largeNReport{
		N:              n,
		Interactions:   int64(out.Interactions),
		BatchedCountNs: float64(elapsed.Nanoseconds()) / float64(out.Interactions),
	}
	if rep.BatchedCountNs > 0 {
		rep.BatchedCountPerSec = 1e9 / rep.BatchedCountNs
	}
	return rep, nil
}

// progressPairs is how many back-to-back pairs benchSweepProgress times.
// On a shared 2-vCPU VM at GOMAXPROCS=1 one trial takes 40–70 ms and a
// pair's ratio has an interquartile range of 0.07–0.16, so a dozen pairs
// cannot tell 0% from 2%. The median of 200 read 0–1.3% in ten runs
// each of two commits, and 5.5–7.2% in ten runs with a 5% delay added
// to the instrumented trial. The 200 pairs take about 25 s.
const progressPairs = 200

// unsyncedFS is the real disk with every fsync elided. The progress
// gate's trials journal through it: on a shared disk the journal's
// per-cell fsyncs, which both sides pay alike, doubled the spread of the
// paired ratios, and the progress record is never fsynced anyway.
// Without them the base trial is faster, so the same progress cost
// reads as a larger share: the gate gets stricter, not looser.
type unsyncedFS struct{ chaos.FS }

type unsyncedFile struct{ chaos.File }

func (unsyncedFile) Sync() error { return nil }

func (u unsyncedFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := u.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (u unsyncedFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	f, err := u.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (unsyncedFS) SyncDir(string) error { return nil }

// benchSweepProgress times the same checkpointed fleet with progress
// tracking off (ProgressEvery < 0: no per-replica accounting, no
// advisory writes) and on (the default 500ms throttle), in
// progressPairs back-to-back pairs whose order alternates, so a load
// shift inside a pair favours neither side. Each trial journals into a
// fresh directory through unsyncedFS — checkpoints have exactly one
// writer and are never reused.
func benchSweepProgress() (sweepProgressOverhead, error) {
	// Big enough that one trial runs 40–70 ms on a 2-vCPU VM, not a few:
	// the gate measures throughput overhead, and a realistic shard runs
	// minutes — a trial so short that two fixed advisory-file writes
	// register would gate on constants no real fleet can observe.
	grid := sweep.Grid{
		Scenarios: []sweep.ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "churn"},
		},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{32, 48, 64},
		Replicas:   10,
		Seed:       8,
	}
	cells, err := grid.Cells()
	if err != nil {
		return sweepProgressOverhead{}, err
	}
	trial := func(every time.Duration) (time.Duration, error) {
		dir, err := os.MkdirTemp("", "dodabench-progress-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		_, _, err = sweepd.Run(grid, filepath.Join(dir, "ck"), sweepd.Options{
			Workers:       runtime.GOMAXPROCS(0),
			ProgressEvery: every,
			FS:            unsyncedFS{chaos.Disk},
		})
		return time.Since(start), err
	}
	// One discarded warmup pair first: the initial trial pays one-off
	// costs (page cache, scheduler ramp-up, JIT-warmed branch predictors)
	// that would otherwise inflate whichever side happens to run first
	// and distort the overhead fraction.
	if _, err := trial(-1); err != nil {
		return sweepProgressOverhead{}, err
	}
	if _, err := trial(0); err != nil {
		return sweepProgressOverhead{}, err
	}
	var base, inst, ratios []float64
	for i := 0; i < progressPairs; i++ {
		var b, in time.Duration
		var errB, errIn error
		if i%2 == 0 {
			b, errB = trial(-1)
			in, errIn = trial(0)
		} else {
			in, errIn = trial(0)
			b, errB = trial(-1)
		}
		if err := errors.Join(errB, errIn); err != nil {
			return sweepProgressOverhead{}, err
		}
		base = append(base, float64(b))
		inst = append(inst, float64(in))
		ratios = append(ratios, float64(in)/float64(b))
	}
	baseMed := stats.Median(base)
	return sweepProgressOverhead{
		Cells:           len(cells),
		Pairs:           progressPairs,
		BaseMs:          baseMed / 1e6,
		InstrumentedMs:  stats.Median(inst) / 1e6,
		BaseCellsPerSec: float64(len(cells)) / (baseMed / 1e9),
		OverheadFrac:    max(stats.Median(ratios)-1, 0),
		RatioIQR:        stats.Quantile(ratios, 0.75) - stats.Quantile(ratios, 0.25),
	}, nil
}

// benchSweepKnowledge runs one uniform waiting-greedy cell (n=256, 20
// replicas) through sweep.Run on one worker: a discarded warm-up run,
// then repeated runs for at least a second, keeping the fastest, whose
// allocations give the bytes per replica. One run takes a few tens of
// milliseconds, and on a shared host a stretch of such runs can all read
// up to twice as slow as the rest; the fastest over a second is the
// figure that repeats.
func benchSweepKnowledge() (sweepKnowledgeReport, error) {
	const n, replicas, minTrials = 256, 20, 5
	grid := sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"waiting-greedy"},
		Sizes:      []int{n},
		Replicas:   replicas,
		Seed:       4,
	}
	rep := sweepKnowledgeReport{N: n, Replicas: replicas, Workers: 1}
	best := time.Duration(1 << 62)
	var began time.Time
	for trial := 0; trial <= minTrials || time.Since(began) < time.Second; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, totals, err := sweep.Run(grid, sweep.Options{Workers: 1})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return sweepKnowledgeReport{}, err
		}
		if totals.Terminated != replicas {
			return sweepKnowledgeReport{}, fmt.Errorf("%d of %d waiting-greedy replicas terminated", totals.Terminated, replicas)
		}
		if trial == 0 {
			began = time.Now()
			continue
		}
		if elapsed >= best {
			continue
		}
		best = elapsed
		rep.Interactions = totals.Interactions
		rep.NsPerInteraction = float64(elapsed.Nanoseconds()) / totals.Interactions
		rep.BytesPerReplica = float64(after.TotalAlloc-before.TotalAlloc) / replicas
	}
	return rep, nil
}

// benchScenarioGen fills the scenario_gen section: S1's edge-Markovian
// (p-up 0.05, p-down 0.2), churn (p-fail 0.1, p-recover 0.1) and
// community (4 communities, p-intra 0.9) parameters, and uniform at
// n=512.
func benchScenarioGen() (scenarioGenReport, error) {
	rep := scenarioGenReport{PUp: 0.05, PDown: 0.2, PFail: 0.1, PRecover: 0.1, Communities: 4, PIntra: 0.9}
	em64, err := scenario.NewEdgeMarkovian(64, rep.PUp, rep.PDown)
	if err != nil {
		return rep, err
	}
	em128, err := scenario.NewEdgeMarkovian(128, rep.PUp, rep.PDown)
	if err != nil {
		return rep, err
	}
	uni, err := scenario.NewUniform(64)
	if err != nil {
		return rep, err
	}
	churn, err := scenario.NewChurn(uni, rep.PFail, rep.PRecover)
	if err != nil {
		return rep, err
	}
	sizes, err := scenario.EvenSizes(64, rep.Communities)
	if err != nil {
		return rep, err
	}
	community, err := scenario.NewCommunity(sizes, rep.PIntra)
	if err != nil {
		return rep, err
	}
	uni512, err := scenario.NewUniform(512)
	if err != nil {
		return rep, err
	}
	rep.EdgeMarkovianN64Ns = genNs(em64)
	rep.EdgeMarkovianN128Ns = genNs(em128)
	rep.ChurnUniformN64Ns = genNs(churn)
	rep.CommunityN64Ns = genNs(community)
	rep.UniformN512Ns = genNs(uni512)
	return rep, nil
}

// genNs times one interaction of a fresh generator of m: the fastest of
// three testing.Benchmark runs, each at least a second long. On a shared
// host a whole run can read slow; the fastest is the figure that
// repeats.
func genNs(m scenario.Model) float64 {
	best := math.Inf(1)
	for trial := 0; trial < 3; trial++ {
		res := testing.Benchmark(func(b *testing.B) {
			gen := m.Generator(rng.New(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen(i)
			}
		})
		best = min(best, float64(res.T.Nanoseconds())/float64(res.N))
	}
	return best
}

// benchCalibration times the reference loop: one xoshiro draw, a hot
// pure-CPU operation no perf PR is likely to touch.
func benchCalibration() float64 {
	src := rng.New(1)
	var sink uint64
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += src.Uint64()
		}
	})
	_ = sink
	return float64(res.T.Nanoseconds()) / float64(res.N)
}

// collectHotpath runs the whole hot-path suite at GOMAXPROCS=1, the
// setting the committed baseline was measured at, and restores the
// caller's setting afterwards. The sim sizes its shards and its
// spin-wait from GOMAXPROCS, so its figures at another setting measure
// another configuration.
func collectHotpath() (*hotpathReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rep hotpathReport
	var err error
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.CalibrationNs = benchCalibration()
	if rep.Engine, err = benchEngine(64, false); err != nil {
		return nil, fmt.Errorf("engine benchmark: %w", err)
	}
	if rep.EngineBatched, err = benchEngine(64, true); err != nil {
		return nil, fmt.Errorf("batched engine benchmark: %w", err)
	}
	if rep.EngineScreened, err = benchEngineScreened(512); err != nil {
		return nil, fmt.Errorf("screened engine benchmark: %w", err)
	}
	if rep.Sim, err = benchSim(32, 0); err != nil {
		return nil, fmt.Errorf("sim benchmark: %w", err)
	}
	if rep.SimSharded, err = benchSim(256, 4); err != nil {
		return nil, fmt.Errorf("sharded sim benchmark: %w", err)
	}
	if rep.AliasSampler, err = benchAlias(1024); err != nil {
		return nil, fmt.Errorf("alias benchmark: %w", err)
	}
	if rep.WeightedGen, err = benchWeightedGen(1024); err != nil {
		return nil, fmt.Errorf("weighted-gen benchmark: %w", err)
	}
	if rep.LargeN, err = benchLargeN(4096); err != nil {
		return nil, fmt.Errorf("large-n benchmark: %w", err)
	}
	if rep.SweepProgress, err = benchSweepProgress(); err != nil {
		return nil, fmt.Errorf("sweep progress-overhead benchmark: %w", err)
	}
	if rep.SweepKnowledge, err = benchSweepKnowledge(); err != nil {
		return nil, fmt.Errorf("knowledge sweep benchmark: %w", err)
	}
	if rep.ScenarioGen, err = benchScenarioGen(); err != nil {
		return nil, fmt.Errorf("scenario generator benchmark: %w", err)
	}
	if rep.ServeLoad, err = benchServeLoad(); err != nil {
		return nil, fmt.Errorf("serve load benchmark: %w", err)
	}
	if rep.ServeDensity, err = benchServeDensity(); err != nil {
		return nil, fmt.Errorf("serve density benchmark: %w", err)
	}
	return &rep, nil
}

// writeReportJSON writes rep to path atomically (temp file + rename), so
// an interrupted run can never leave a truncated trajectory file behind.
func writeReportJSON(rep *hotpathReport, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeHotpathJSON runs the hot-path suite and writes the report to path.
func writeHotpathJSON(path string) (*hotpathReport, error) {
	rep, err := collectHotpath()
	if err != nil {
		return nil, err
	}
	if err := writeReportJSON(rep, path); err != nil {
		return nil, err
	}
	return rep, nil
}
