package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// sweepOut runs the CLI and returns stdout.
func sweepOut(t *testing.T, args []string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestSweepEmitsOneJSONLinePerCellInOrder(t *testing.T) {
	out := sweepOut(t, []string{
		"-scenarios", "uniform;zipf:alpha=1", "-algs", "waiting,gathering",
		"-n", "8,12", "-reps", "2", "-seed", "3",
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8 cells:\n%s", len(lines), out)
	}
	for i, line := range lines {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if doc["index"] != float64(i) {
			t.Errorf("line %d has index %v: cells must stream in order", i, doc["index"])
		}
		if doc["terminated"] != doc["replicas"] {
			t.Errorf("cell %d: %v of %v replicas terminated", i, doc["terminated"], doc["replicas"])
		}
	}
}

// TestShardedEqualsSequential is the acceptance gate for the sweep
// engine: a ≥100-cell scenario×algorithm grid sharded across many
// workers must produce byte-identical output to the workers=1 run.
func TestShardedEqualsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-run sweep skipped in -short mode")
	}
	// 5 scenarios × 2 algorithms × 10 sizes = 100 cells.
	base := []string{
		"-scenarios", "uniform;zipf:alpha=1;edge-markovian;community:communities=2;churn",
		"-algs", "waiting,gathering",
		"-n", "4,5,6,7,8,9,10,11,12,13",
		"-reps", "2", "-seed", "11", "-summary",
	}
	seq := sweepOut(t, append([]string{"-workers", "1"}, base...))
	workers := 8
	if c := runtime.GOMAXPROCS(0); c > workers {
		workers = c
	}
	par := sweepOut(t, append([]string{"-workers", itoa(workers)}, base...))
	if seq != par {
		t.Errorf("workers=1 and workers=%d outputs differ:\n--- sequential ---\n%s\n--- sharded ---\n%s",
			workers, seq, par)
	}
	if n := strings.Count(seq, "\n"); n != 101 { // 100 cells + totals line
		t.Errorf("got %d lines, want 101", n)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestSweepErrors(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{name: "unknown scenario", args: []string{"-scenarios", "bogus"}},
		{name: "unknown algorithm", args: []string{"-algs", "bogus"}},
		{name: "bad size", args: []string{"-n", "two"}},
		{name: "tiny size", args: []string{"-n", "1"}},
		{name: "zero replicas", args: []string{"-reps", "0"}},
		{name: "empty scenarios", args: []string{"-scenarios", ";"}},
		{name: "bad params", args: []string{"-scenarios", "zipf:novalue"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, io.Discard, io.Discard); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestSweepProvenanceFlag drives the -provenance flag end to end: the
// resolved mode must land in every JSON line and bad values must fail.
func TestSweepProvenanceFlag(t *testing.T) {
	for _, tt := range []struct {
		flag string
		want string
	}{
		{flag: "auto", want: `"provenance":"full"`}, // n=8 is below the auto threshold
		{flag: "count", want: `"provenance":"count"`},
		{flag: "off", want: `"provenance":"off"`},
	} {
		out := sweepOut(t, []string{
			"-scenarios", "uniform", "-algs", "gathering", "-n", "8",
			"-reps", "2", "-seed", "3", "-provenance", tt.flag,
		})
		if !strings.Contains(out, tt.want) {
			t.Errorf("-provenance %s: output missing %s:\n%s", tt.flag, tt.want, out)
		}
	}
	if err := run([]string{"-provenance", "bogus"}, io.Discard, io.Discard); err == nil {
		t.Error("bad provenance flag should fail")
	}
}

// TestSweepProvenanceModesAgreeOnStatistics checks, at the CLI level,
// that full and count-only provenance change nothing but the mode label
// in the streamed JSONL (the batched-vs-scalar differential gate lives
// in internal/sweep, whose tests can hide the adversary's NextBatch).
func TestSweepProvenanceModesAgreeOnStatistics(t *testing.T) {
	base := []string{"-scenarios", "uniform;zipf:alpha=1", "-algs", "waiting,gathering",
		"-n", "8,12", "-reps", "2", "-seed", "3"}
	full := sweepOut(t, append([]string{"-provenance", "full"}, base...))
	count := sweepOut(t, append([]string{"-provenance", "count"}, base...))
	norm := func(s string) string {
		s = strings.ReplaceAll(s, `"provenance":"full"`, `"provenance":"X"`)
		return strings.ReplaceAll(s, `"provenance":"count"`, `"provenance":"X"`)
	}
	if norm(full) != norm(count) {
		t.Errorf("full and count sweeps disagree beyond the mode label:\n--- full ---\n%s\n--- count ---\n%s", full, count)
	}
}

// TestSweepProfiles smoke-tests the pprof flags.
func TestSweepProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	sweepOut(t, []string{
		"-scenarios", "uniform", "-algs", "gathering", "-n", "8", "-reps", "2",
		"-cpuprofile", cpu, "-memprofile", mem,
	})
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", p, err)
		}
	}
}

// failingWriter fails every write after the first n bytes — the
// short-write/ENOSPC class of stream failure.
type failingWriter struct {
	budget int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.budget <= 0 {
		return 0, errors.New("write: no space left on device")
	}
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errors.New("write: no space left on device")
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestWriteErrorPropagatesToExitCode is the regression test for the
// silently-lost-cells bug: a failing JSONL stream must abort the sweep
// and surface as a non-nil error (exit code 1), not drop cells.
func TestWriteErrorPropagatesToExitCode(t *testing.T) {
	args := []string{"-scenarios", "uniform", "-algs", "waiting,gathering",
		"-n", "6,8,10,12", "-reps", "2", "-seed", "3"}
	err := run(args, &failingWriter{budget: 300}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("err = %v, want the stream write error", err)
	}
	// The same failure must also surface through the checkpointed path.
	err = run(append([]string{"-checkpoint", t.TempDir() + "/ck"}, args...),
		&failingWriter{budget: 300}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Fatalf("checkpointed: err = %v, want the stream write error", err)
	}
}

// TestCheckpointResumeByteIdentical drives -checkpoint/-resume end to
// end: a run killed mid-sweep (via the service's crash hook) and resumed
// through the CLI emits output byte-identical to a clean run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	base := []string{"-scenarios", "uniform;zipf:alpha=1", "-algs", "waiting,gathering",
		"-n", "6,8,10", "-reps", "2", "-seed", "9", "-summary"}
	clean := sweepOut(t, base)

	// Simulate the SIGKILL with the service's cell-boundary hook, then
	// hand the half-written checkpoint to the CLI's -resume.
	dir := filepath.Join(t.TempDir(), "ck")
	grid := sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}, {Name: "zipf", Params: map[string]string{"alpha": "1"}}},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{6, 8, 10},
		Replicas:   2,
		Seed:       9,
		Provenance: "auto", // match the CLI's -provenance default: fingerprints must agree
	}
	killed := errors.New("killed")
	_, _, err := sweepd.Run(grid, dir, sweepd.Options{
		OnResult: func(sweep.CellResult) error { return nil },
		AfterCheckpoint: func(done, total int) error {
			if done >= 5 {
				return killed
			}
			return nil
		},
	})
	if !errors.Is(err, killed) {
		t.Fatalf("setup kill: %v", err)
	}

	resumed := sweepOut(t, append([]string{"-resume", dir}, base...))
	if resumed != clean {
		t.Errorf("-resume output differs from a clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, resumed)
	}
	// Resuming the now-complete checkpoint is a byte-identical no-op too.
	again := sweepOut(t, append([]string{"-resume", dir}, base...))
	if again != clean {
		t.Error("second -resume differs from a clean run")
	}
}

// TestShardMergeByteIdentical runs every shard through the CLI and
// stitches them with the merge subcommand: the merged stream must be
// byte-identical to the unsharded run, and the shard streams must
// partition the cells.
func TestShardMergeByteIdentical(t *testing.T) {
	base := []string{"-scenarios", "uniform;edge-markovian", "-algs", "waiting,gathering",
		"-n", "6,8,10", "-reps", "2", "-seed", "4", "-summary"}
	clean := sweepOut(t, base)

	const m = 3
	tmp := t.TempDir()
	dirs := make([]string, m)
	cellLines := 0
	for i := 0; i < m; i++ {
		dirs[i] = filepath.Join(tmp, "shard"+itoa(i))
		out := sweepOut(t, append([]string{
			"-shard", itoa(i) + "/" + itoa(m), "-checkpoint", dirs[i],
		}, base...))
		// A shard's own stream is its cells plus its shard totals line.
		cellLines += strings.Count(out, "\n") - 1
	}
	if cellLines != 12 {
		t.Errorf("shard streams carry %d cells in total, want 12 (disjoint cover)", cellLines)
	}

	merged := sweepOut(t, append([]string{"merge", "-summary"}, dirs...))
	if merged != clean {
		t.Errorf("merge output differs from the unsharded run:\n--- clean ---\n%s\n--- merged ---\n%s", clean, merged)
	}
}

// TestStaleCheckpointRejectedByCLI: resuming with changed grid flags must
// fail loudly instead of mixing two sweeps.
func TestStaleCheckpointRejectedByCLI(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	sweepOut(t, []string{"-scenarios", "uniform", "-algs", "gathering",
		"-n", "6,8", "-reps", "2", "-seed", "3", "-checkpoint", dir})
	err := run([]string{"-scenarios", "uniform", "-algs", "gathering",
		"-n", "6,8", "-reps", "2", "-seed", "4", "-resume", dir}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "stale checkpoint") {
		t.Errorf("changed -seed on -resume: got %v, want stale-checkpoint rejection", err)
	}
	// A fresh -checkpoint into an existing checkpoint is refused too.
	err = run([]string{"-scenarios", "uniform", "-algs", "gathering",
		"-n", "6,8", "-reps", "2", "-seed", "3", "-checkpoint", dir}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("re-checkpoint into existing dir: got %v", err)
	}
}

// TestShardAndMergeFlagErrors covers the new flag-validation paths.
func TestShardAndMergeFlagErrors(t *testing.T) {
	for _, tt := range []struct {
		name string
		args []string
	}{
		{name: "malformed shard", args: []string{"-shard", "3"}},
		{name: "shard index out of range", args: []string{"-shard", "3/3"}},
		{name: "negative shard", args: []string{"-shard", "-1/3"}},
		{name: "checkpoint and resume together", args: []string{"-checkpoint", "a", "-resume", "b"}},
		{name: "merge without dirs", args: []string{"merge"}},
		{name: "merge missing dir", args: []string{"merge", "/nonexistent-checkpoint-dir"}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, io.Discard, io.Discard); err == nil {
				t.Error("want error")
			}
		})
	}
}
