package doda_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"doda"
	"doda/internal/sweep"
)

// TestAnalyzeSweepThroughRootAPI drives the whole analysis surface as a
// library user would: extract scaling laws from a sweep's results,
// render the report, and read the results back from their JSONL stream.
func TestAnalyzeSweepThroughRootAPI(t *testing.T) {
	grid := sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}},
		Algorithms: []string{"gathering"},
		Sizes:      []int{12, 16, 24, 32},
		Replicas:   8,
		Seed:       3,
	}
	results, _, err := sweep.Run(grid, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := doda.AnalyzeSweep(results, doda.SweepAnalysisOptions{Bootstrap: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(a.Groups))
	}
	g := a.Groups[0]
	if g.Law == nil {
		t.Fatalf("no law fitted: %s", g.Note)
	}
	free, ok := g.Law.FreeFit()
	if !ok || math.Abs(free.Exponent-2) > 0.6 {
		t.Errorf("free exponent %.3f, want near 2 for gathering", free.Exponent)
	}
	var buf bytes.Buffer
	if err := doda.WriteSweepAnalysis(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# Scaling-law report") {
		t.Error("report missing its header")
	}

	// Round-trip through the JSONL stream reader.
	var stream bytes.Buffer
	enc := json.NewEncoder(&stream)
	_, _, err = sweep.Run(grid, sweep.Options{OnResult: func(r doda.SweepCellResult) error {
		return enc.Encode(r)
	}})
	if err != nil {
		t.Fatal(err)
	}
	read, err := doda.ReadSweepResults(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != len(results) {
		t.Errorf("stream round-trip lost cells: %d != %d", len(read), len(results))
	}
}

func TestFitScalingLawThroughRootAPI(t *testing.T) {
	ns := []float64{16, 32, 64, 128}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 2 * math.Pow(n, 1.5)
	}
	law, err := doda.FitScalingLaw(ns, ys, doda.SweepAnalysisOptions{Bootstrap: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	free, ok := law.FreeFit()
	if !ok || math.Abs(free.Exponent-1.5) > 1e-9 {
		t.Errorf("free exponent = %v, want 1.5", free.Exponent)
	}
	if law.Best == "" {
		t.Error("no model selected")
	}
}
