package main

// The sweep workload: the paper-scale grids behind EXPERIMENTS.md, run
// through sweepd.Run with two workers into fresh on-disk checkpoints.
// It is the one workload where the engine, the meetTime oracle and the
// scenario generators do the work, which makes it the control for
// every serve-side change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"doda/internal/analysis"
	"doda/internal/chaos"
	"doda/internal/stats"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

const (
	sweepWorkers = 2
	sweepSetups  = 100 // set-ups timed before each pass; setup_s is their median
)

type namedGrid struct {
	name string
	grid sweep.Grid
}

type sweepSpec struct {
	grids func(seed uint64) []namedGrid
}

// paperSweep runs the scaling-law report grid at full scale, then
// experiment S1's full-scale grid.
var paperSweep = sweepSpec{grids: func(seed uint64) []namedGrid {
	return []namedGrid{
		{"scaling", analysis.ReportGrid(true, seed)},
		{"s1", s1Grid(seed, 64, 80)},
	}
}}

// s1Grid is experiment S1's grid as internal/experiments builds it from
// a suite seed: n=64 and 80 replicas at full scale.
func s1Grid(seed uint64, n, replicas int) sweep.Grid {
	return sweep.Grid{
		Scenarios: []sweep.ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "edge-markovian", Params: map[string]string{"p-up": "0.05", "p-down": "0.2"}},
			{Name: "community", Params: map[string]string{"communities": "4", "p-intra": "0.9"}},
			{Name: "churn", Params: map[string]string{"p-fail": "0.1", "p-recover": "0.1"}},
		},
		Algorithms:      []string{"waiting", "gathering"},
		Sizes:           []int{n},
		Replicas:        replicas,
		Seed:            seed ^ 0x53,
		MaxInteractions: 400*n*n + 40*waitingCap(n),
	}
}

// waitingCap mirrors internal/experiments: 12× Waiting's expected
// duration n(n-1)/2·H(n-1), plus slack.
func waitingCap(n int) int {
	return int(12*float64(n)*float64(n-1)/2*stats.Harmonic(n-1)) + 4000
}

// sweepPass is one grid run inside the window.
type sweepPass struct {
	grid    namedGrid
	dir     string
	results []sweep.CellResult
	totals  sweep.Totals
	err     error
}

func (sp sweepSpec) run(cfg runConfig, rec *recorder) (*outcome, error) {
	grids := sp.grids(cfg.seed)
	root := filepath.Join(cfg.dir, "sweep")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	out := &outcome{digests: map[string]string{}}

	env, err := environment(root, "real")
	if err != nil {
		return nil, err
	}
	out.env = env

	var fsys chaos.FS = chaos.Disk
	if rec != nil {
		fsys = newTimingFS(chaos.Disk, rec, "sweepd", root)
	}
	// The window: whole passes over the grids, at least one, until the
	// window's length is reached. Each pass starts by timing sweepSetups
	// set-ups, so that the set-up median samples the whole run rather
	// than its first milliseconds. A pass's turnaround, from its first
	// sweepd.Run call until both grids' results are journaled, is the
	// sweep's ack.
	var (
		passes []sweepPass
		acks   []time.Duration
	)
	rt0 := readRuntime()
	if rec != nil {
		rec.on.Store(true)
	}
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < cfg.seconds; p++ {
		if err := timeSetups(grids, out); err != nil {
			return nil, err
		}
		t0 := time.Now()
		failed := false
		for _, g := range grids {
			dir := filepath.Join(root, fmt.Sprintf("pass%d-%s", p, g.name))
			res, tot, err := sweepd.Run(g.grid, dir, sweepd.Options{Workers: sweepWorkers, FS: fsys})
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: sweep failed:", err)
				failed = true
			}
			passes = append(passes, sweepPass{grid: g, dir: dir, results: res, totals: tot, err: err})
			out.interactions += tot.Interactions
		}
		ack := time.Since(t0)
		if failed {
			ack = failedLatency
		}
		acks = append(acks, ack)
	}
	out.window = time.Since(start)
	if rec != nil {
		rec.on.Store(false)
	}
	out.runtime = readRuntime().sub(rt0)
	out.maxRSSMB = maxRSSMB()

	var recs []sweepd.CellRecord
	for _, p := range passes {
		cr, err := sp.check(p, passes, out)
		if err != nil && out.checkErr == nil {
			out.checkErr = err
		}
		recs = append(recs, cr...)
	}
	// The figures cover the whole window: interactions over its length,
	// and the passes' turnarounds, five or more per window. A pass with a
	// failed grid ranks worst.
	out.throughput = ratio(out.interactions, out.window.Seconds())
	out.ackP50, out.ackP90 = percentile(acks, 0.50), percentile(acks, 0.90)
	if rec != nil {
		if out.layers, err = sweepLayers(rec.snapshot(), recs, out, cfg.seed); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timeSetups times sweepSetups set-ups and adds them to out.setups. A
// set-up is the in-memory part of what sweepd.Run does before its first
// cell: expand each grid and fingerprint it for the journal header.
// Creating the journal is left out: it is filesystem metadata work on a
// shared disk, whose cost moved the median set-up by a quarter between
// sets of runs even with fsync elided.
func timeSetups(grids []namedGrid, out *outcome) error {
	for r := 0; r < sweepSetups; r++ {
		t0 := time.Now()
		for _, g := range grids {
			if _, err := g.grid.Cells(); err != nil {
				return err
			}
			if _, err := g.grid.Fingerprint(); err != nil {
				return err
			}
		}
		out.setups = append(out.setups, time.Since(t0))
	}
	return nil
}

// check verifies one pass and returns its journaled cell records. It
// counts the pass's cells as attempted and the ones that never
// journaled as failed. A pass's results must match what sweepd.Merge reads back
// from its checkpoint, byte for byte as JSON, and the first pass of the
// same grid; every replica must have terminated with N-1 transmissions.
func (sp sweepSpec) check(p sweepPass, passes []sweepPass, out *outcome) ([]sweepd.CellRecord, error) {
	cells, err := p.grid.grid.Cells()
	if err != nil {
		return nil, err
	}
	_, recs, rerr := sweepd.ReadCheckpoint(p.dir)
	out.attempted += int64(len(cells))
	out.failed += int64(len(cells) - len(recs))
	switch {
	case p.err != nil:
		return recs, fmt.Errorf("%s: %w", p.dir, p.err)
	case rerr != nil:
		return recs, rerr
	}

	got, err := json.Marshal(struct {
		R []sweep.CellResult
		T sweep.Totals
	}{p.results, p.totals})
	if err != nil {
		return recs, err
	}
	mres, mtot, err := sweepd.Merge([]string{p.dir})
	if err != nil {
		return recs, fmt.Errorf("merge %s: %w", p.dir, err)
	}
	merged, err := json.Marshal(struct {
		R []sweep.CellResult
		T sweep.Totals
	}{mres, mtot})
	if err != nil {
		return recs, err
	}
	if string(got) != string(merged) {
		return recs, fmt.Errorf("%s: merged checkpoint differs from the results Run returned", p.dir)
	}
	for _, first := range passes {
		if first.grid.name != p.grid.name || first.err != nil {
			continue
		}
		if first.dir != p.dir {
			again, err := json.Marshal(first.results)
			if err != nil {
				return recs, err
			}
			mine, err := json.Marshal(p.results)
			if err != nil {
				return recs, err
			}
			if string(again) != string(mine) {
				return recs, fmt.Errorf("%s: results differ from %s on the same seed", p.dir, first.dir)
			}
		} else {
			sum := sha256.Sum256(got)
			out.digests["sweep_"+p.grid.name] = hex.EncodeToString(sum[:])
		}
		break
	}
	for _, r := range p.results {
		if r.Terminated != r.Replicas || r.Transmissions != r.Replicas*(r.N-1) {
			return recs, fmt.Errorf("%s cell %d (%s/%s/n=%d): %d/%d replicas terminated, %d transmissions",
				p.dir, r.Index, r.Scenario.Name, r.Algorithm, r.N, r.Terminated, r.Replicas, r.Transmissions)
		}
	}
	return recs, nil
}
