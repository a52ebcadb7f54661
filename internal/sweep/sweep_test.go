package sweep

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func testGrid() Grid {
	return Grid{
		Scenarios: []ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "community", Params: map[string]string{"communities": "2", "p-intra": "0.8"}},
		},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{6, 10},
		Replicas:   3,
		Seed:       21,
	}
}

func TestGridCellsExpansionAndSeeds(t *testing.T) {
	g := testGrid()
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*2*2 {
		t.Fatalf("%d cells, want 12", len(cells))
	}
	seen := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Seed != cellSeed(g.Seed, i) {
			t.Errorf("cell %d seed not derived from index", i)
		}
		if seen[c.Seed] {
			t.Errorf("cell %d seed collides", i)
		}
		seen[c.Seed] = true
	}
	// Expansion order is scenario-major, then algorithm, then size.
	if cells[0].Scenario.Name != "uniform" || cells[0].Algorithm != "waiting" || cells[0].N != 6 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[1].N != 10 || cells[2].Algorithm != "gathering" || cells[4].Scenario.Name != "zipf" {
		t.Errorf("unexpected expansion order: %+v", cells[:5])
	}
}

func TestGridValidation(t *testing.T) {
	base := testGrid()
	for name, mutate := range map[string]func(*Grid){
		"no scenarios":      func(g *Grid) { g.Scenarios = nil },
		"no algorithms":     func(g *Grid) { g.Algorithms = nil },
		"no sizes":          func(g *Grid) { g.Sizes = nil },
		"zero replicas":     func(g *Grid) { g.Replicas = 0 },
		"negative cap":      func(g *Grid) { g.MaxInteractions = -1 },
		"unknown scenario":  func(g *Grid) { g.Scenarios = []ScenarioRef{{Name: "bogus"}} },
		"unknown algorithm": func(g *Grid) { g.Algorithms = []string{"bogus"} },
		"tiny size":         func(g *Grid) { g.Sizes = []int{1} },
	} {
		g := base
		mutate(&g)
		if _, err := g.Cells(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestRunWorkerCountInvariant is the library-level half of the sharding
// acceptance test: identical results for 1, 3 and 8 workers, compared
// structurally (including the unexported accumulator) and after JSON
// round-tripping.
func TestRunWorkerCountInvariant(t *testing.T) {
	g := testGrid()
	var base []CellResult
	var baseTotals Totals
	for _, workers := range []int{1, 3, 8} {
		results, totals, err := Run(g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			base, baseTotals = results, totals
			continue
		}
		if !reflect.DeepEqual(results, base) {
			t.Errorf("workers=%d results differ from sequential", workers)
		}
		if !reflect.DeepEqual(totals, baseTotals) {
			t.Errorf("workers=%d totals differ from sequential", workers)
		}
	}
	if baseTotals.Cells != 12 || baseTotals.Runs != 36 {
		t.Errorf("totals = %+v", baseTotals)
	}
	if baseTotals.Terminated != baseTotals.Runs {
		t.Errorf("only %d/%d runs terminated", baseTotals.Terminated, baseTotals.Runs)
	}
}

// TestRunStreamsInCellOrder checks the OnResult reorder buffer.
func TestRunStreamsInCellOrder(t *testing.T) {
	var streamed []int
	results, _, err := Run(testGrid(), Options{
		Workers:  4,
		OnResult: func(r CellResult) error { streamed = append(streamed, r.Index); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(results) {
		t.Fatalf("streamed %d of %d cells", len(streamed), len(results))
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("streamed order %v", streamed)
		}
	}
}

// TestRunKnowledgeAlgorithmFallback exercises a knowledge algorithm on
// the generator fast path: waiting-greedy's meetTime oracle scans a
// second generator of the replica's sequence instead of a cached stream
// (only full-knowledge cells still take the stream-backed path).
func TestRunKnowledgeAlgorithmFallback(t *testing.T) {
	results, totals, err := Run(Grid{
		Scenarios:  []ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"waiting-greedy"},
		Sizes:      []int{8},
		Replicas:   2,
		Seed:       5,
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || totals.Terminated != 2 {
		t.Fatalf("results = %+v, totals = %+v", results, totals)
	}
}

func TestCellResultMarshalsCleanly(t *testing.T) {
	results, _, err := Run(Grid{
		Scenarios:  []ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"gathering"},
		Sizes:      []int{6},
		Replicas:   1, // single replica: StdDev would be NaN if unsanitised
		Seed:       2,
	}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(results[0])
	if err != nil {
		t.Fatalf("cell result does not marshal: %v", err)
	}
	if !strings.Contains(string(raw), `"stddev":0`) {
		t.Errorf("single-replica stddev not sanitised: %s", raw)
	}
}

func TestParseScenarios(t *testing.T) {
	refs, err := ParseScenarios(" uniform; zipf:alpha=2 ;community:communities=4,p-intra=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 || refs[1].Params["alpha"] != "2" || refs[2].Params["p-intra"] != "0.9" {
		t.Fatalf("refs = %+v", refs)
	}
	if refs[1].String() != "zipf:alpha=2" {
		t.Errorf("String() = %q", refs[1].String())
	}
	if got := refs[2].String(); got != "community:communities=4,p-intra=0.9" {
		t.Errorf("String() = %q (params must sort)", got)
	}
	for _, bad := range []string{"", " ; ", "zipf:novalue"} {
		if _, err := ParseScenarios(bad); err == nil {
			t.Errorf("ParseScenarios(%q) should fail", bad)
		}
	}
}

// TestFingerprintPinsEveryGridField: any field that shapes the cell list
// or a cell's result must change the fingerprint, and equal grids must
// fingerprint identically — the stale-checkpoint rejection contract.
func TestFingerprintPinsEveryGridField(t *testing.T) {
	base := testGrid()
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2, _ := testGrid().Fingerprint(); fp2 != fp {
		t.Error("equal grids fingerprint differently")
	}
	for name, mutate := range map[string]func(*Grid){
		"seed":            func(g *Grid) { g.Seed++ },
		"replicas":        func(g *Grid) { g.Replicas++ },
		"sizes":           func(g *Grid) { g.Sizes = append(g.Sizes, 14) },
		"algorithms":      func(g *Grid) { g.Algorithms = g.Algorithms[:1] },
		"scenario params": func(g *Grid) { g.Scenarios[1].Params = map[string]string{"alpha": "2"} },
		"scenario list":   func(g *Grid) { g.Scenarios = g.Scenarios[:2] },
		"cap":             func(g *Grid) { g.MaxInteractions = 99 },
		"provenance":      func(g *Grid) { g.Provenance = "count" },
	} {
		g := testGrid()
		mutate(&g)
		got, err := g.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == fp {
			t.Errorf("mutating %s did not change the fingerprint", name)
		}
	}
}

// TestShardOfDisjointCover: every cell index lands in exactly one shard,
// and shard 0 of 1 is everything.
func TestShardOfDisjointCover(t *testing.T) {
	for idx := 0; idx < 1000; idx++ {
		if ShardOf(idx, 1) != 0 {
			t.Fatalf("ShardOf(%d, 1) = %d", idx, ShardOf(idx, 1))
		}
		for _, m := range []int{2, 3, 7, 64} {
			s := ShardOf(idx, m)
			if s < 0 || s >= m {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", idx, m, s)
			}
		}
	}
}

// TestRunSelectRestrictsCells: a selected subset runs exactly those
// cells, with results byte-identical to the same cells from a full run —
// the cell-identity contract shard processes rely on.
func TestRunSelectRestrictsCells(t *testing.T) {
	g := testGrid()
	full, _, err := Run(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sel := func(c Cell) bool { return c.Index%3 == 1 }
	part, _, err := Run(g, Options{Workers: 2, Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	var want []CellResult
	for _, r := range full {
		if r.Index%3 == 1 {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(part, want) {
		t.Errorf("selected results differ from the same cells of a full run")
	}
	// Empty selection is legal and returns nothing.
	none, totals, err := Run(g, Options{Select: func(Cell) bool { return false }})
	if err != nil || len(none) != 0 || totals.Cells != 0 {
		t.Errorf("empty selection: %d results, %+v, %v", len(none), totals, err)
	}
}

// TestRunOnResultErrorPropagates: an emitter failure must abort the sweep
// and surface as Run's error — never silently drop cells.
func TestRunOnResultErrorPropagates(t *testing.T) {
	calls := 0
	_, _, err := Run(testGrid(), Options{
		Workers: 4,
		OnResult: func(CellResult) error {
			calls++
			if calls == 3 {
				return errBoom
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the emitter error", err)
	}
	if calls > 3 {
		t.Errorf("emitter called %d times after failing on call 3", calls)
	}
}

var errBoom = fmt.Errorf("boom: short write")
