package sweep

import (
	"fmt"
	"testing"

	"doda/internal/core"
	"doda/internal/offline"
	"doda/internal/scenario"
)

// TestDurationNeverBeatsOfflineOptimum checks the paper's offline bound
// across the scenario registry: no algorithm aggregates before the
// optimal offline convergecast on the same interaction sequence
// completes (§2.3, opt(0)), and the full-knowledge algorithm, which
// plays that convergecast, finishes exactly then (Theorem 8). offline.Opt
// runs the reverse-broadcast construction on the recorded sequence, an
// oracle independent of the engine's drain loops.
func TestDurationNeverBeatsOfflineOptimum(t *testing.T) {
	terminated, fullKnowledge := 0, 0
	for _, spec := range scenario.All() {
		for _, name := range AlgorithmNames() {
			for _, n := range []int{8, 12} {
				for seed := uint64(1); seed <= 3; seed++ {
					label := fmt.Sprintf("%s/%s/n=%d/seed=%d", spec.Name, name, n, seed)
					w := buildWorkload(t, spec, n, seed)
					cap := scenario.DefaultCap(w.N)
					if b, finite := w.View.Bound(); finite && cap > b {
						cap = b
					}
					alg, know, err := newAlgorithm(name, w.N, cap, w.View)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					cfg := core.Config{N: w.N, MaxInteractions: cap, Know: know, VerifyAggregate: true}
					res, err := core.RunOnce(cfg, alg, w.Adversary)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !res.Terminated {
						continue
					}
					terminated++
					opt, ok := offline.Opt(w.View, 0, 0, res.Duration+1)
					switch {
					case !ok:
						t.Errorf("%s: terminated at %d but no offline convergecast completes by then", label, res.Duration)
					case opt > res.Duration:
						t.Errorf("%s: duration %d beats the offline optimum %d", label, res.Duration, opt)
					case name == "full-knowledge" && opt != res.Duration:
						t.Errorf("%s: full knowledge took %d, offline optimum is %d", label, res.Duration, opt)
					}
					if name == "full-knowledge" {
						fullKnowledge++
					}
				}
			}
		}
	}
	if terminated == 0 || fullKnowledge == 0 {
		t.Fatalf("vacuous: %d terminated runs, %d of them full-knowledge", terminated, fullKnowledge)
	}
	t.Logf("%d terminated runs (%d full-knowledge) within the offline bound", terminated, fullKnowledge)
}
