package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"doda/internal/adversary"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/parallel"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
)

// AlgorithmNames lists the algorithms a sweep can run.
func AlgorithmNames() []string {
	return []string{"waiting", "gathering", "waiting-greedy", "full-knowledge"}
}

func knownAlgorithm(name string) bool {
	for _, a := range AlgorithmNames() {
		if a == name {
			return true
		}
	}
	return false
}

// needsSequence reports whether the algorithm needs random access to the
// whole interaction sequence, and therefore a stream-backed (caching)
// workload. Every other algorithm runs on the generator fast path, where
// waiting-greedy's meetTime oracle scans a generator of its own.
func needsSequence(name string) bool {
	return name == "full-knowledge"
}

// newAlgorithm builds the named algorithm for an n-node run capped at cap
// interactions, plus the knowledge bundle it requires with its oracles
// over view (nil for the knowledge-free algorithms). A nil view builds
// the algorithm alone: Runner.Replica grants waiting-greedy's meetTime
// oracle per replica itself.
func newAlgorithm(name string, n, cap int, view seq.View) (core.Algorithm, *knowledge.Bundle, error) {
	var (
		alg   core.Algorithm
		grant knowledge.Option
	)
	switch name {
	case "waiting":
		return algorithms.Waiting{}, nil, nil
	case "gathering":
		return algorithms.NewGathering(), nil, nil
	case "waiting-greedy":
		alg, grant = algorithms.WaitingGreedy{Tau: algorithms.TauStar(n)}, knowledge.WithMeetTime(view, 0, cap)
	case "full-knowledge":
		alg, grant = algorithms.NewFullKnowledge(cap), knowledge.WithFullSequence(view)
	default:
		return nil, nil, fmt.Errorf("sweep: unknown algorithm %q", name)
	}
	if view == nil {
		return alg, nil, nil
	}
	know, err := knowledge.NewBundle(grant)
	if err != nil {
		return nil, nil, err
	}
	return alg, know, nil
}

// Options tunes one sweep execution.
type Options struct {
	// Workers is the shard count (< 1 = GOMAXPROCS).
	Workers int
	// OnResult, when non-nil, receives every cell result in cell-index
	// order as soon as it and all its predecessors have completed — the
	// streaming hook cmd/dodasweep uses to emit JSON lines while later
	// cells are still running. Called from worker goroutines under a
	// lock; keep it cheap. A non-nil error aborts the sweep: no further
	// results are delivered and Run returns the error — an emitter that
	// cannot write (short write, ENOSPC) must stop the sweep rather than
	// silently lose cells.
	OnResult func(CellResult) error
	// Select, when non-nil, restricts the sweep to the cells it returns
	// true for. Cell identity (index, seed) is fixed by the full grid
	// before selection, so a selected cell's result is byte-identical
	// whether the rest of the grid runs in this process or another —
	// the contract shard runs and checkpoint resumes are built on.
	// Results, totals and OnResult cover only the selected cells.
	Select func(Cell) bool
	// OnReplica, when non-nil, receives each freshly executed replica's
	// outcome the moment it completes, before the cell result is
	// finalised — the hook per-replica checkpointing hangs off. It is
	// called from worker goroutines (concurrently across cells, in
	// replica order within a cell); implementations must synchronise. A
	// non-nil error aborts the sweep. Restored replicas (ResumeReplicas)
	// are not re-delivered.
	OnReplica func(cell Cell, rep int, out ReplicaOutcome) error
	// ResumeReplicas, when non-nil, supplies the journaled outcomes of a
	// cell's leading replicas. The returned prefix is folded into the
	// cell result exactly as if those replicas had just run (their seeds
	// are still drawn and discarded, so the remaining replicas see the
	// same seed stream), making a mid-cell resume byte-identical to an
	// uninterrupted run. Called from worker goroutines; must be safe for
	// concurrent use and must return at most Replicas outcomes.
	ResumeReplicas func(cell Cell) []ReplicaOutcome
	// OnCellWall, when non-nil, receives each cell's wall-clock run time
	// the moment the cell finishes executing, always before that cell is
	// delivered to OnResult. Wall time is observability metadata and
	// deliberately lives outside CellResult: the result stream must stay
	// bit-for-bit independent of machine speed. Called from worker
	// goroutines; must be safe for concurrent use.
	OnCellWall func(cell Cell, wall time.Duration)

	// wrapAdversary, when non-nil, wraps every run's adversary. The
	// package's differential tests set it to hide the batch extensions,
	// which makes the engine play one Next call per interaction.
	wrapAdversary func(core.Adversary) core.Adversary
}

// Run executes the grid and returns the per-cell results in cell order
// plus the fleet totals. Results are bit-for-bit independent of
// opt.Workers.
func Run(grid Grid, opt Options) ([]CellResult, Totals, error) {
	cells, err := grid.Cells()
	if err != nil {
		return nil, Totals{}, err
	}
	if opt.Select != nil {
		selected := make([]Cell, 0, len(cells))
		for _, c := range cells {
			if opt.Select(c) {
				selected = append(selected, c)
			}
		}
		cells = selected
	}
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1 // empty selection: MapWorkers still wants a pool
	}

	// One runner per worker: a reusable engine plus sample buffers, so
	// steady-state cells allocate only what the workload model needs.
	runners := make([]*runner, workers)
	for w := range runners {
		runners[w] = &runner{Runner: Runner{wrap: opt.wrapAdversary}}
	}
	em := &emitter{fn: opt.OnResult, pending: map[int]CellResult{}}

	results, err := parallel.MapWorkers(len(cells), workers, func(w, i int) (CellResult, error) {
		start := time.Now()
		res, err := runners[w].runCell(grid, opt, cells[i])
		if err != nil {
			return CellResult{}, err
		}
		if opt.OnCellWall != nil {
			opt.OnCellWall(cells[i], time.Since(start))
		}
		if err := em.emit(i, res); err != nil {
			return CellResult{}, err
		}
		return res, nil
	})
	if err != nil {
		return nil, Totals{}, err
	}
	return results, TotalsOf(results), nil
}

// emitter delivers cell results to a callback in index order, buffering
// out-of-order completions from the shards. The first callback error
// latches: no further results are delivered, and every later emit returns
// the same error so the workers abort instead of sweeping cells nobody
// can record.
type emitter struct {
	mu      sync.Mutex
	next    int
	pending map[int]CellResult
	fn      func(CellResult) error
	err     error
}

func (e *emitter) emit(i int, r CellResult) error {
	if e.fn == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return e.err
	}
	e.pending[i] = r
	for {
		r, ok := e.pending[e.next]
		if !ok {
			return nil
		}
		delete(e.pending, e.next)
		e.next++
		if err := e.fn(r); err != nil {
			// Name the cell actually being delivered: the caller that
			// surfaced the error may have been draining another worker's
			// buffered result.
			e.err = fmt.Errorf("sweep: emit cell %d: %w", r.Index, err)
			return e.err
		}
	}
}

// Runner plays single replicas of a generative model on one engine,
// re-armed by Reset for every replica. It is the path every generative
// sweep cell takes, and the experiments play their uniform-adversary
// replicas through it too. The zero value is ready to use; a Runner is
// not safe for concurrent use.
type Runner struct {
	eng *core.Engine
	// wrap, when non-nil, wraps every replica's adversary (see
	// Options.wrapAdversary).
	wrap func(core.Adversary) core.Adversary
}

// Replica plays alg for at most cap interactions against the sequence
// model generates from seed, under provenance mode prov, with the
// aggregate verified on termination. A model that is a
// scenario.Screener plays through its screened adversary, which skips
// interactions that are not between two data owners at the source;
// any other model feeds the engine from its generator. Waiting Greedy
// gets its meetTime oracle from a second generator built from the same
// model and seed: the sequence the adversary plays, with nothing cached.
//
// The Result's SinkValue.Origins aliases engine storage that the next
// Replica recycles.
func (r *Runner) Replica(model scenario.Model, alg core.Algorithm, cap int, prov core.ProvenanceMode, seed uint64) (core.Result, error) {
	n := model.N()
	var (
		adv core.Adversary
		err error
	)
	if sm, ok := model.(scenario.Screener); ok {
		adv, err = sm.ScreenedAdversary(rng.New(seed))
	} else {
		adv, err = adversary.NewGenerated(model.Name(), n, model.Generator(rng.New(seed)))
	}
	if err != nil {
		return core.Result{}, err
	}
	var know *knowledge.Bundle
	if _, ok := alg.(algorithms.WaitingGreedy); ok {
		if know, err = knowledge.NewBundle(knowledge.WithMeetTimeGen(n, model.Generator(rng.New(seed)), 0, cap)); err != nil {
			return core.Result{}, err
		}
	}
	return r.run(core.Config{N: n, MaxInteractions: cap, Know: know, VerifyAggregate: true, Provenance: prov}, alg, adv)
}

// run re-arms the engine under cfg and plays alg against adv.
func (r *Runner) run(cfg core.Config, alg core.Algorithm, adv core.Adversary) (core.Result, error) {
	if r.wrap != nil {
		adv = r.wrap(adv)
	}
	if r.eng == nil {
		var err error
		if r.eng, err = core.NewEngine(cfg); err != nil {
			return core.Result{}, err
		}
	} else if err := r.eng.Reset(cfg); err != nil {
		return core.Result{}, err
	}
	return r.eng.Run(alg, adv)
}

// runner is one worker's scratch state: a Runner plus sample buffers.
type runner struct {
	Runner
	durs []float64
	ints []float64
}

// runCell executes every replica of one cell.
func (r *runner) runCell(grid Grid, opt Options, cell Cell) (CellResult, error) {
	spec, ok := scenario.Lookup(cell.Scenario.Name)
	if !ok {
		return CellResult{}, fmt.Errorf("sweep: scenario %q not registered", cell.Scenario.Name)
	}
	prov, err := core.ParseProvenanceMode(cell.Provenance)
	if err != nil {
		return CellResult{}, fmt.Errorf("sweep: cell %d: %w", cell.Index, err)
	}
	res := CellResult{Cell: cell, Replicas: grid.Replicas}
	r.durs = r.durs[:0]
	r.ints = r.ints[:0]

	// Journaled replicas of a partially-checkpointed cell: folded in
	// below exactly as if they had just run, so the finished cell is
	// byte-identical to an uninterrupted one.
	var prior []ReplicaOutcome
	if opt.ResumeReplicas != nil {
		prior = opt.ResumeReplicas(cell)
		if len(prior) > grid.Replicas {
			return CellResult{}, fmt.Errorf("sweep: cell %d: %d restored replicas exceed the %d configured",
				cell.Index, len(prior), grid.Replicas)
		}
	}

	// Replica seeds derive from the cell seed alone.
	src := rng.New(cell.Seed)

	// Generator fast path: every algorithm but full knowledge plays
	// through Replica, caching no interaction. Its algorithms are
	// stateless across runs, so one instance serves every replica.
	var (
		model scenario.Model
		alg   core.Algorithm
		cap   int
	)
	if spec.Model != nil && !needsSequence(cell.Algorithm) {
		if model, err = spec.Model(cell.N, cell.Scenario.Params); err != nil {
			return CellResult{}, err
		}
		if alg, _, err = newAlgorithm(cell.Algorithm, model.N(), 1, nil); err != nil {
			return CellResult{}, err
		}
		if cap = grid.MaxInteractions; cap == 0 {
			cap = scenario.DefaultCap(model.N())
		}
	}

	for rep := 0; rep < grid.Replicas; rep++ {
		repSeed := src.Uint64()
		if rep < len(prior) {
			// The seed above was drawn and discarded, so the fresh
			// replicas below see the exact seed stream an uninterrupted
			// run would have given them.
			r.apply(&res, prior[rep])
			continue
		}
		var out core.Result
		if model != nil {
			out, err = r.Replica(model, alg, cap, prov, repSeed)
		} else {
			out, err = r.buildReplica(grid, cell, spec, prov, repSeed)
		}
		if err != nil {
			return CellResult{}, fmt.Errorf("sweep: cell %d (%s/%s/n=%d) replica %d: %w",
				cell.Index, cell.Scenario, cell.Algorithm, cell.N, rep, err)
		}
		oc := ReplicaOutcome{
			Terminated:    out.Terminated,
			Interactions:  float64(out.Interactions),
			Transmissions: out.Transmissions,
		}
		if out.Terminated {
			oc.Duration = float64(out.Duration + 1)
		}
		r.apply(&res, oc)
		if opt.OnReplica != nil {
			if err := opt.OnReplica(cell, rep, oc); err != nil {
				return CellResult{}, err
			}
		}
	}
	res.Duration = metricOf(r.durs)
	res.Interactions = metricOf(r.ints)
	return res, nil
}

// buildReplica plays one replica on spec.Build's workload: the cached
// stream full knowledge needs random access to, or a replayed trace.
func (r *runner) buildReplica(grid Grid, cell Cell, spec scenario.Spec, prov core.ProvenanceMode, seed uint64) (core.Result, error) {
	w, err := spec.Build(cell.N, seed, cell.Scenario.Params)
	if err != nil {
		return core.Result{}, err
	}
	cap := grid.MaxInteractions
	if cap == 0 {
		cap = scenario.DefaultCap(w.N)
	}
	if b, finite := w.View.Bound(); finite && cap > b {
		cap = b
	}
	alg, know, err := newAlgorithm(cell.Algorithm, w.N, cap, w.View)
	if err != nil {
		return core.Result{}, err
	}
	return r.run(core.Config{N: w.N, MaxInteractions: cap, Know: know, VerifyAggregate: true, Provenance: prov}, alg, w.Adversary)
}

// apply folds one replica outcome — fresh or restored — into the cell
// accumulators. Replaying journaled outcomes through the same fold, in
// the same replica order, is what makes a mid-cell resume byte-identical.
func (r *runner) apply(res *CellResult, oc ReplicaOutcome) {
	res.Transmissions += oc.Transmissions
	r.ints = append(r.ints, oc.Interactions)
	if oc.Terminated {
		res.Terminated++
		r.durs = append(r.durs, oc.Duration)
		res.durW.Add(oc.Duration)
	}
}
