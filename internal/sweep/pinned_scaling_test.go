package sweep_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"doda/internal/analysis"
	"doda/internal/sweep"
)

// TestScalingResultsPinned pins, like TestS1ResultsPinned, the results
// of the scaling-law report grid at its quick scale: the uniform model
// under waiting, gathering and waiting-greedy at n 16 to 64, 24
// replicas. It covers the uniform generator's pair draws, the second
// generator waiting-greedy's meetTime oracle scans, and the engine's
// skip of interactions whose endpoints do not both own data.
func TestScalingResultsPinned(t *testing.T) {
	const want = "20f96f705dacf8c7717387579cb34d55b95e395432b41a2ffe64a867d0c87f4f"
	results, _, err := sweep.Run(analysis.ReportGrid(false, 1), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 15 {
		t.Fatalf("%d cells, want 15", len(results))
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
