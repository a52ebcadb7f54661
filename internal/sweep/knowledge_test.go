package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/scenario"
)

// streamReference runs one cell of grid replica by replica the way the
// stream path has always run it: spec.Build's cached stream backs the
// adversary and the oracles, the oracles read the stream as a View, and
// each replica is a fresh core.RunOnce. It returns the cell folded the
// way runCell folds it, and every replica's outcome.
func streamReference(t *testing.T, grid Grid, cell Cell) (CellResult, []ReplicaOutcome) {
	t.Helper()
	spec, ok := scenario.Lookup(cell.Scenario.Name)
	if !ok {
		t.Fatalf("scenario %q not registered", cell.Scenario.Name)
	}
	prov, err := core.ParseProvenanceMode(cell.Provenance)
	if err != nil {
		t.Fatal(err)
	}
	var r runner
	res := CellResult{Cell: cell, Replicas: grid.Replicas}
	var outs []ReplicaOutcome
	src := rng.New(cell.Seed)
	for rep := 0; rep < grid.Replicas; rep++ {
		w, err := spec.Build(cell.N, src.Uint64(), cell.Scenario.Params)
		if err != nil {
			t.Fatal(err)
		}
		cap := grid.MaxInteractions
		if cap == 0 {
			cap = scenario.DefaultCap(w.N)
		}
		if b, finite := w.View.Bound(); finite && cap > b {
			cap = b
		}
		var (
			alg   core.Algorithm
			grant knowledge.Option
		)
		switch cell.Algorithm {
		case "waiting-greedy":
			alg, grant = algorithms.WaitingGreedy{Tau: algorithms.TauStar(w.N)}, knowledge.WithMeetTime(w.View, 0, cap)
		case "full-knowledge":
			alg, grant = algorithms.NewFullKnowledge(cap), knowledge.WithFullSequence(w.View)
		default:
			t.Fatalf("no stream reference for %q", cell.Algorithm)
		}
		know, err := knowledge.NewBundle(grant)
		if err != nil {
			t.Fatal(err)
		}
		out, err := core.RunOnce(core.Config{
			N: w.N, MaxInteractions: cap, Know: know, VerifyAggregate: true, Provenance: prov,
		}, alg, w.Adversary)
		if err != nil {
			t.Fatalf("cell %d replica %d: %v", cell.Index, rep, err)
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
		outs = append(outs, oc)
	}
	res.Duration = metricOf(r.durs)
	res.Interactions = metricOf(r.ints)
	return res, outs
}

// TestKnowledgeCellsMatchStreamReference pins the knowledge cells to the
// stream-backed reference: waiting-greedy on the generator fast path
// (its oracle scanning a second generator) and full-knowledge on its
// cached stream must give byte-identical results, replica by replica,
// for every generative scenario. Sizes run 12, 8, 16, so a worker's
// engine shrinks and then grows between cells, at one and three workers.
func TestKnowledgeCellsMatchStreamReference(t *testing.T) {
	var refs []ScenarioRef
	for _, spec := range scenario.All() {
		if spec.Model != nil {
			refs = append(refs, ScenarioRef{Name: spec.Name})
		}
	}
	grid := Grid{
		Scenarios:  refs,
		Algorithms: []string{"waiting-greedy", "full-knowledge"},
		Sizes:      []int{12, 8, 16},
		Replicas:   3,
		Seed:       29,
	}
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var want []CellResult
	wantReplicas := map[[2]int]ReplicaOutcome{}
	for _, c := range cells {
		res, outs := streamReference(t, grid, c)
		want = append(want, res)
		for rep, oc := range outs {
			wantReplicas[[2]int{c.Index, rep}] = oc
		}
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		got, _, err := Run(grid, Options{
			Workers: workers,
			OnReplica: func(c Cell, rep int, oc ReplicaOutcome) error {
				mu.Lock()
				defer mu.Unlock()
				if ref := wantReplicas[[2]int{c.Index, rep}]; oc != ref {
					return fmt.Errorf("cell %d (%s/%s/n=%d) replica %d: %+v, stream reference %+v",
						c.Index, c.Scenario, c.Algorithm, c.N, rep, oc, ref)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("workers=%d: results differ from the stream reference:\n--- got ---\n%s\n--- want ---\n%s",
				workers, gotJSON, wantJSON)
		}
	}
}

// TestWaitingGreedyReplicaAllocations bounds what one warmed uniform
// waiting-greedy replica at n=256 allocates: its oracle scans a generator
// and keeps only meeting times, so the bytes do not grow with the
// hundreds of thousands of interactions it looks ahead over. Caching the
// scanned stream cost about 19 MB per replica.
func TestWaitingGreedyReplicaAllocations(t *testing.T) {
	const replicas = 10
	grid := func(reps int) Grid {
		return Grid{
			Scenarios:  []ScenarioRef{{Name: "uniform"}},
			Algorithms: []string{"waiting-greedy"},
			Sizes:      []int{256},
			Replicas:   reps,
			Seed:       3,
		}
	}
	var r runner
	allocated := func(g Grid) uint64 {
		cells, err := g.Cells()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := r.runCell(g, Options{}, cells[0])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Terminated != g.Replicas {
			t.Fatalf("%d of %d replicas terminated", res.Terminated, g.Replicas)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(grid(1)) // warm the worker's engine
	// Replica seeds depend only on the cell, so the longer cell repeats
	// the shorter one's replica and adds the rest.
	one := allocated(grid(1))
	many := allocated(grid(1 + replicas))
	perReplica := float64(many-one) / replicas
	const ceiling = 64 << 10
	if perReplica >= ceiling {
		t.Errorf("a warmed waiting-greedy replica at n=256 allocates %.0f B, ceiling %d B", perReplica, ceiling)
	}
	t.Logf("%.0f B per warmed replica", perReplica)
}
