package sweepd

// Observability-layer tests: per-replica checkpoint granularity with
// mid-cell crash-resume differentials, the read-only Watcher against
// live and damaged checkpoints (including a reader hammering an actively
// appending writer), and the advisory progress record's tolerance
// contract.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"doda/internal/chaos"
	"doda/internal/recordlog"
	"doda/internal/sweep"
)

// gridSmall is a quick 12-cell grid for watcher/progress units.
func gridSmall() sweep.Grid {
	return sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}, {Name: "churn"}},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{4, 6, 8},
		Replicas:   3,
		Seed:       555,
	}
}

// runPerReplicaUntilKilled drives one per-replica checkpointed run that
// aborts after killAt journaled replica records (0 = run to completion,
// checking the stream), returning the emitted stream.
func runPerReplicaUntilKilled(t *testing.T, grid sweep.Grid, dir string, workers, killAt int, resume bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	var reps atomic.Int64
	opt := Options{
		Workers:       workers,
		Resume:        resume,
		PerReplica:    true,
		ProgressEvery: -1,
		OnResult:      func(r sweep.CellResult) error { return enc.Encode(r) },
	}
	if killAt > 0 {
		opt.AfterReplica = func(cell, repsDone int) error {
			if reps.Add(1) >= int64(killAt) {
				return errKilled
			}
			return nil
		}
	}
	results, totals, err := Run(grid, dir, opt)
	if killAt > 0 {
		if !errors.Is(err, errKilled) {
			t.Fatalf("killAt=%d replicas: got %v, want the injected kill", killAt, err)
		}
		return buf.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return renderJSONL(t, results, totals)
}

// TestPerReplicaCrashResumeDifferential is the mid-cell kill gate: a
// per-replica checkpointed sweep killed between replicas of a cell —
// never at a cell boundary — and resumed must replay the journaled
// replica prefix and produce a stream byte-identical to the
// uninterrupted run, across worker counts.
func TestPerReplicaCrashResumeDifferential(t *testing.T) {
	grid := gridSmall()
	want := uninterrupted(t, grid)
	rng := rand.New(rand.NewSource(99))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				dir := filepath.Join(t.TempDir(), "ck")
				// First run: killed mid-cell after 1..12 replica records.
				runPerReplicaUntilKilled(t, grid, dir, workers, 1+rng.Intn(12), false)
				// Second run: resumed and killed mid-cell again.
				runPerReplicaUntilKilled(t, grid, dir, workers, 1+rng.Intn(6), true)
				// Final resume runs to completion.
				got := runPerReplicaUntilKilled(t, grid, dir, workers, 0, true)
				if got != want {
					t.Fatalf("trial %d: per-replica resumed stream differs from uninterrupted run", trial)
				}
			}
		})
	}
}

// TestPerReplicaMatchesCellGranularity pins that checkpoint granularity
// is invisible in the output: the same grid journaled per-replica and
// per-cell produces identical streams, and the per-replica journal can
// be merged/loaded by the same readers.
func TestPerReplicaMatchesCellGranularity(t *testing.T) {
	grid := gridSmall()
	base := t.TempDir()
	perCell, _ := runUntilKilled(t, grid, filepath.Join(base, "cell"), 2, 0, 1, 0, false)
	perRep := runPerReplicaUntilKilled(t, grid, filepath.Join(base, "rep"), 2, 0, false)
	if perCell != perRep {
		t.Fatal("per-replica and per-cell checkpointing produced different streams")
	}
	r1, t1, err := Merge([]string{filepath.Join(base, "cell")})
	if err != nil {
		t.Fatal(err)
	}
	r2, t2, err := Merge([]string{filepath.Join(base, "rep")})
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, r1, t1) != renderJSONL(t, r2, t2) {
		t.Fatal("merged per-replica checkpoint differs from per-cell")
	}
}

// TestReaderWhileWriter hammers a live checkpoint with concurrent
// read-only observers while a per-replica writer journals into it: no
// Snapshot or ReadProgress call may ever error (beyond ErrNoCheckpoint
// before the first segment lands), and the final snapshot must agree
// with the finished journal.
func TestReaderWhileWriter(t *testing.T) {
	grid := gridSmall()
	dir := filepath.Join(t.TempDir(), "ck")

	writerDone := make(chan error, 1)
	go func() {
		_, _, err := Run(grid, dir, Options{
			Workers:       2,
			PerReplica:    true,
			ProgressEvery: 1, // flush the advisory record constantly
		})
		writerDone <- err
	}()

	// One persistent watcher (exercises the (size, mtime) cache across
	// segment publications) and fresh ones every poll (exercises cold
	// parses of half-published state).
	persistent := NewWatcher(dir)
	polls, sawProgress := 0, false
	var lastDone int
	for done := false; !done; {
		select {
		case err := <-writerDone:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		for _, w := range []*Watcher{persistent, NewWatcher(dir)} {
			snap, err := w.Snapshot()
			if errors.Is(err, ErrNoCheckpoint) {
				continue
			}
			if err != nil {
				t.Fatalf("live Snapshot errored: %v", err)
			}
			if snap.CellsDone < lastDone && w == persistent {
				t.Fatalf("progress regressed: %d then %d cells done", lastDone, snap.CellsDone)
			}
			if w == persistent {
				lastDone = snap.CellsDone
			}
			if snap.Progress != nil {
				sawProgress = true
			}
		}
		if _, err := ReadProgress(dir); err != nil {
			t.Fatalf("live ReadProgress errored: %v", err)
		}
		polls++
	}

	final, err := persistent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if final.CellsDone != len(cells) || final.CellsTotal != len(cells) {
		t.Fatalf("final snapshot %d/%d cells, want %d/%d", final.CellsDone, final.CellsTotal, len(cells), len(cells))
	}
	if final.ReplicasDone != 0 {
		t.Fatalf("finished shard still reports %d in-flight replicas", final.ReplicasDone)
	}
	if final.Progress == nil || !final.Progress.Done {
		t.Fatalf("final progress record missing or not done: %+v", final.Progress)
	}
	if !sawProgress && polls > 0 {
		t.Log("note: no poll observed a progress record (timing-dependent, not a failure)")
	}
}

// TestWatcherToleratesTornTail truncates the last published segment
// mid-line: the Watcher must count the valid prefix and never error —
// that is exactly the shape a crashed writer leaves.
func TestWatcherToleratesTornTail(t *testing.T) {
	grid := gridSmall()
	dir := filepath.Join(t.TempDir(), "ck")
	runUntilKilled(t, grid, dir, 1, 0, 1, 0, false)

	whole, err := NewWatcher(dir).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	nums, err := segments.List(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	last := filepath.Join(dir, segments.Name(nums[len(nums)-1]))
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := NewWatcher(dir).Snapshot()
	if err != nil {
		t.Fatalf("torn tail must be tolerated, got %v", err)
	}
	if torn.CellsDone >= whole.CellsDone {
		t.Fatalf("truncation removed a record but CellsDone went %d -> %d", whole.CellsDone, torn.CellsDone)
	}
}

// TestWatcherRejectsSemanticCorruption pins the other half of the
// tolerance contract: crc-intact lines that violate journal invariants
// (here, a duplicated segment producing duplicate cells) still fail.
func TestWatcherRejectsSemanticCorruption(t *testing.T) {
	grid := gridSmall()
	dir := filepath.Join(t.TempDir(), "ck")
	runUntilKilled(t, grid, dir, 1, 0, 1, 0, false)
	nums, err := segments.List(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segments.Name(nums[len(nums)-1])))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segments.Name(len(nums))), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWatcher(dir).Snapshot(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicated segment: got %v, want ErrCorrupt", err)
	}
}

// TestWatcherEmptyDir returns ErrNoCheckpoint, and a directory holding
// only tmp files reads the same way.
func TestWatcherEmptyDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWatcher(dir).Snapshot(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
	if err := os.WriteFile(filepath.Join(dir, segments.Name(0)+".tmp"), []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWatcher(dir).Snapshot(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("tmp-only dir: got %v, want ErrNoCheckpoint", err)
	}
}

// TestProgressRecordLifecycle checks writeProgress/ReadProgress round
// trips and every documented tolerance: absent, torn, crc-damaged and
// non-JSON files all read as (nil, nil).
func TestProgressRecordLifecycle(t *testing.T) {
	dir := t.TempDir()
	if p, err := ReadProgress(dir); p != nil || err != nil {
		t.Fatalf("missing record: got %+v, %v", p, err)
	}
	want := Progress{CellsDone: 3, CellsTotal: 12, FreshCells: 2, Interactions: 44.5, Transmissions: 17, ElapsedMs: 1250}
	if err := writeProgress(chaos.Disk, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProgress(dir)
	if err != nil || got == nil || *got != want {
		t.Fatalf("round trip: got %+v, %v", got, err)
	}
	path := filepath.Join(dir, progressName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, contents := range map[string][]byte{
		"torn":        raw[:len(raw)-4],
		"crc-damaged": append([]byte("deadbeef"), raw[8:]...),
		"not-json":    recordlog.AppendFrame(nil, []byte("not json")),
		"empty":       {},
	} {
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		if p, err := ReadProgress(dir); p != nil || err != nil {
			t.Fatalf("%s record: got %+v, %v (want nil, nil)", name, p, err)
		}
	}
	// A fresh write replaces the damage.
	if err := writeProgress(chaos.Disk, dir, want); err != nil {
		t.Fatal(err)
	}
	if p, _ := ReadProgress(dir); p == nil || !strings.Contains(fmt.Sprint(*p), "44.5") {
		t.Fatalf("rewrite after damage: got %+v", p)
	}
}

// TestProgressCountsRestoredWork resumes a killed per-cell run and
// checks the first flushed record already counts the restored cells.
func TestProgressCountsRestoredWork(t *testing.T) {
	grid := gridSmall()
	dir := filepath.Join(t.TempDir(), "ck")
	runUntilKilled(t, grid, dir, 1, 0, 1, 4, false) // dies after 4 cells
	var first, last *Progress
	_, _, err := Run(grid, dir, Options{
		Workers: 1,
		Resume:  true,
		OnProgress: func(p Progress) {
			if first == nil {
				cp := p
				first = &cp
			}
			cp := p
			last = &cp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("OnProgress never fired")
	}
	if first.CellsDone < 4 || first.CellsDone-first.FreshCells != 4 {
		t.Fatalf("first flush reports %+v, want the 4 restored cells counted as done but not fresh", first)
	}
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if last.CellsDone != len(cells) || !last.Done {
		t.Fatalf("final flush reports %+v, want all %d cells done", last, len(cells))
	}
	if last.FreshCells != len(cells)-4 {
		t.Fatalf("FreshCells=%d, want %d (4 cells were restored)", last.FreshCells, len(cells)-4)
	}
}
