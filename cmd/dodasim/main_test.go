package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestRunGathering(t *testing.T) {
	if err := run([]string{"-n", "16", "-alg", "gathering", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWaiting(t *testing.T) {
	if err := run([]string{"-n", "12", "-alg", "waiting", "-seed", "4", "-cost=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWaitingGreedyAutoTau(t *testing.T) {
	if err := run([]string{"-n", "16", "-alg", "waiting-greedy", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWaitingGreedyExplicitTau(t *testing.T) {
	if err := run([]string{"-n", "16", "-alg", "waiting-greedy", "-tau", "200", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFullKnowledge(t *testing.T) {
	if err := run([]string{"-n", "12", "-alg", "full-knowledge", "-seed", "6"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFutureOptimal(t *testing.T) {
	if err := run([]string{"-n", "10", "-alg", "future-optimal", "-seed", "7", "-max", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTheorem1(t *testing.T) {
	if err := run([]string{"-n", "3", "-adversary", "theorem1", "-max", "500"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTheorem3(t *testing.T) {
	if err := run([]string{"-n", "4", "-adversary", "theorem3", "-max", "500"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConcurrent(t *testing.T) {
	if err := run([]string{"-n", "10", "-alg", "gathering", "-concurrent", "-seed", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run([]string{"-n", "10", "-alg", "gathering", "-trace", path, "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("empty trace file")
	}
}

// TestRunConcurrentTraceMatchesSequential checks that -concurrent records
// the same trace as the sequential engine: the runtime delivers events in
// interaction order, so the two files must be byte-identical.
func TestRunConcurrentTraceMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	seqPath := filepath.Join(dir, "seq.jsonl")
	concPath := filepath.Join(dir, "conc.jsonl")
	args := []string{"-n", "16", "-alg", "gathering", "-seed", "3"}
	if err := run(append(args, "-trace", seqPath)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-concurrent", "-trace", concPath)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(concPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty sequential trace")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("concurrent trace (%d bytes) differs from the sequential one (%d bytes)", len(got), len(want))
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown algorithm", args: []string{"-alg", "nope"}},
		{name: "unknown adversary", args: []string{"-adversary", "nope"}},
		{name: "theorem1 wrong n", args: []string{"-n", "5", "-adversary", "theorem1"}},
		{name: "theorem3 wrong n", args: []string{"-n", "5", "-adversary", "theorem3"}},
		{name: "bad tau", args: []string{"-alg", "waiting-greedy", "-tau", "xyz"}},
		{name: "wg needs random adversary", args: []string{"-n", "3", "-alg", "waiting-greedy", "-adversary", "theorem1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunScenarioFlag(t *testing.T) {
	if err := run([]string{"-n", "16", "-alg", "gathering", "-scenario", "edge-markovian", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioWithParams(t *testing.T) {
	if err := run([]string{"-n", "15", "-alg", "waiting-greedy", "-scenario", "community",
		"-params", "communities=3,p-intra=0.8", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioErrors(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{name: "unknown scenario", args: []string{"-scenario", "nope"}},
		{name: "bad params", args: []string{"-scenario", "churn", "-params", "novalue"}},
		{name: "unknown param", args: []string{"-scenario", "churn", "-params", "bogus=1"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestRunScenarioFlagConflicts(t *testing.T) {
	if err := run([]string{"-params", "p-up=0.1"}); err == nil {
		t.Error("want error: -params without -scenario")
	}
	if err := run([]string{"-scenario", "uniform", "-adversary", "random"}); err == nil {
		t.Error("want error: -scenario with explicit -adversary")
	}
}
