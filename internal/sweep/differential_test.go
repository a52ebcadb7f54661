package sweep

// Differential acceptance tests for the batched interaction pipeline:
// batched and scalar execution must produce byte-identical sweep JSONL
// for every registry scenario, every sweep algorithm and every provenance
// mode, and identical engine Results for every registry workload
// (including trace replay, which the grid cannot express).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/scenario"
)

// sweepJSONL runs the grid and renders every cell result plus the totals
// exactly as cmd/dodasweep streams them.
func sweepJSONL(t *testing.T, grid Grid, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	opt.OnResult = func(r CellResult) error {
		return enc.Encode(r)
	}
	_, totals, err := Run(grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(totals); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedSweepEqualsScalarSweep is the sweep half of the batching
// acceptance gate: for every generative registry scenario, both the
// knowledge-free fast path and the stream-backed knowledge algorithms,
// and all provenance choices, the batched fleet must emit byte-identical
// JSONL to the scalar fleet, and the fleet as it runs, whose uniform
// cells skip idle interactions at the source, to the batched one.
func TestBatchedSweepEqualsScalarSweep(t *testing.T) {
	var refs []ScenarioRef
	for _, spec := range scenario.All() {
		if spec.Model == nil {
			continue // trace replay is covered by the engine-level test below
		}
		refs = append(refs, ScenarioRef{Name: spec.Name})
	}
	if len(refs) < 5 {
		t.Fatalf("registry shrank: %d generative scenarios", len(refs))
	}
	for _, prov := range []string{"auto", "full", "count", "off"} {
		grid := Grid{
			Scenarios:  refs,
			Algorithms: AlgorithmNames(), // fast path and knowledge fallback
			Sizes:      []int{6, 9},
			Replicas:   2,
			Seed:       17,
			Provenance: prov,
		}
		screened := sweepJSONL(t, grid, Options{Workers: 2})
		batched := sweepJSONL(t, grid, Options{Workers: 2, wrapAdversary: hideScreen})
		scalar := sweepJSONL(t, grid, Options{Workers: 2, wrapAdversary: hideBatch})
		if !bytes.Equal(batched, scalar) {
			t.Errorf("provenance=%s: batched and scalar sweeps differ:\n--- batched ---\n%s\n--- scalar ---\n%s",
				prov, batched, scalar)
		}
		if !bytes.Equal(screened, batched) {
			t.Errorf("provenance=%s: screened and batched sweeps differ:\n--- screened ---\n%s\n--- batched ---\n%s",
				prov, screened, batched)
		}
	}
}

// nextOnly embeds only core.Adversary, so it hides NextBatch and
// NextOwned: the engine plays the wrapped adversary one Next call at a
// time, the reference path of the differential tests.
type nextOnly struct{ core.Adversary }

func hideBatch(adv core.Adversary) core.Adversary { return nextOnly{adv} }

// hideScreen hides NextOwned from a batchable adversary, so the engine
// drains it through NextBatch.
func hideScreen(adv core.Adversary) core.Adversary {
	if b, ok := adv.(core.BatchAdversary); ok {
		return struct{ core.BatchAdversary }{b}
	}
	return adv
}

// buildWorkload instantiates one registry scenario, writing a small
// contact trace to disk for the trace spec.
func buildWorkload(t *testing.T, spec scenario.Spec, n int, seed uint64) *scenario.Workload {
	t.Helper()
	params := map[string]string{}
	if spec.Name == "trace" {
		path := filepath.Join(t.TempDir(), "trace.csv")
		var rows bytes.Buffer
		rows.WriteString("time,u,v\n")
		// A deterministic little trace Gathering terminates on: two
		// passes over the non-sink path 1-2-...-(n-1) (the second pass is
		// mostly skips, exercising non-owner interactions), then a star
		// pass that drains every remaining owner into the sink.
		line := 0
		for round := 0; round < 2; round++ {
			for u := 1; u < n-1; u++ {
				fmt.Fprintf(&rows, "%d,%d,%d\n", line, u, u+1)
				line++
			}
		}
		for u := 1; u < n; u++ {
			fmt.Fprintf(&rows, "%d,%d,%d\n", line, 0, u)
			line++
		}
		if err := os.WriteFile(path, rows.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		params["file"] = path
	}
	w, err := spec.Build(n, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBatchedEqualsScalarEveryRegistryScenario runs every registered
// scenario — trace replay included — through the engine's batched and
// scalar paths under every provenance mode and demands identical Results.
func TestBatchedEqualsScalarEveryRegistryScenario(t *testing.T) {
	const n = 10
	for _, spec := range scenario.All() {
		for _, mode := range []core.ProvenanceMode{core.ProvenanceFull, core.ProvenanceCount, core.ProvenanceOff} {
			label := fmt.Sprintf("%s/%v", spec.Name, mode)
			var results [2]core.Result
			for i, disable := range []bool{false, true} {
				w := buildWorkload(t, spec, n, 23)
				cap := scenario.DefaultCap(w.N)
				if b, finite := w.View.Bound(); finite && cap > b {
					cap = b
				}
				cfg := core.Config{
					N: w.N, MaxInteractions: cap, VerifyAggregate: true,
					Provenance: mode,
				}
				adv := w.Adversary
				if disable {
					adv = hideBatch(adv)
				}
				res, err := core.RunOnce(cfg, algorithms.NewGathering(), adv)
				if err != nil {
					t.Fatalf("%s disable=%v: %v", label, disable, err)
				}
				if !res.Terminated {
					t.Fatalf("%s disable=%v: did not terminate", label, disable)
				}
				results[i] = res
			}
			batched, scalar := results[0], results[1]
			if batched.Duration != scalar.Duration || batched.Interactions != scalar.Interactions ||
				batched.Transmissions != scalar.Transmissions || batched.Declined != scalar.Declined ||
				batched.LastGap != scalar.LastGap ||
				batched.SinkValue.Num != scalar.SinkValue.Num ||
				batched.SinkValue.Count != scalar.SinkValue.Count {
				t.Errorf("%s: batched %+v != scalar %+v", label, batched, scalar)
			}
			if mode == core.ProvenanceFull {
				if batched.SinkValue.Origins == nil || scalar.SinkValue.Origins == nil ||
					!batched.SinkValue.Origins.Equal(scalar.SinkValue.Origins) {
					t.Errorf("%s: provenance differs: %v vs %v", label,
						batched.SinkValue.Origins, scalar.SinkValue.Origins)
				}
			}
		}
	}
}

// TestAutoProvenanceResolution pins the auto threshold and the per-cell
// mode logging.
func TestAutoProvenanceResolution(t *testing.T) {
	grid := Grid{
		Scenarios:  []ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"gathering"},
		Sizes:      []int{8, AutoProvenanceThreshold},
		Replicas:   1,
		Seed:       3,
		// A tight cap: the large cell need not terminate, this test only
		// reads the resolved modes.
		MaxInteractions: 50,
	}
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Provenance != "full" || cells[1].Provenance != "count" {
		t.Errorf("auto resolution = %q/%q, want full/count", cells[0].Provenance, cells[1].Provenance)
	}

	grid.Provenance = "off"
	cells, err = grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Provenance != "off" {
			t.Errorf("explicit off resolved to %q", c.Provenance)
		}
	}

	grid.Provenance = "bogus"
	if _, err := grid.Cells(); err == nil {
		t.Error("bogus provenance choice must fail grid validation")
	}
}

// TestCellOutputCarriesProvenance checks the mode reaches the JSONL the
// CLI streams.
func TestCellOutputCarriesProvenance(t *testing.T) {
	results, _, err := Run(Grid{
		Scenarios:  []ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"gathering"},
		Sizes:      []int{6},
		Replicas:   1,
		Seed:       2,
	}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(results[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"provenance":"full"`)) {
		t.Errorf("cell output missing resolved provenance: %s", raw)
	}
}
