package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestS1ResultsPinned pins, by SHA-256 of their JSON, the results of a
// small grid shaped like experiment S1's: its five scenarios with S1's
// parameters, under waiting and gathering, at n 16 and 32. The generator
// pins in package scenario compare sequences; this compares what a sweep
// makes of them, so a change to a generator, the engine or the result
// encoding that moves any cell's figures fails here, across builds.
func TestS1ResultsPinned(t *testing.T) {
	const want = "ff334b95a800fcf5d98b0cebd17f5e632715122b43e69b977f4e76f9cf0bac39"
	grid := Grid{
		Scenarios: []ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "edge-markovian", Params: map[string]string{"p-up": "0.05", "p-down": "0.2"}},
			{Name: "community", Params: map[string]string{"communities": "4", "p-intra": "0.9"}},
			{Name: "churn", Params: map[string]string{"p-fail": "0.1", "p-recover": "0.1"}},
		},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{16, 32},
		Replicas:   8,
		Seed:       0x53,
	}
	results, _, err := Run(grid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("%d cells, want 20", len(results))
	}
	for _, r := range results {
		if r.Terminated != r.Replicas {
			t.Errorf("%s/%s n=%d: %d of %d replicas terminated", r.Scenario, r.Algorithm, r.N, r.Terminated, r.Replicas)
		}
	}
	raw, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("results hash %s, want %s", got, want)
	}
}
