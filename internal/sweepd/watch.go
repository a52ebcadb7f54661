package sweepd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"doda/internal/recordlog"
	"doda/internal/sweep"
)

// Watcher tails one shard's live checkpoint directory read-only. It
// never writes, repairs, or locks anything, so it can run against a
// directory another process is actively journaling into. It reads with
// ReadCheckpoint's segment parse, journal rules and tally, and keeps one
// tolerance only, for damage: a failed crc or unterminated bytes end that
// segment's intact prefix, in any segment and at any position, and the
// prefix is counted. A live reader may hold a stale listing while a
// resumed writer repairs and appends, and the repair keeps exactly that
// prefix, so the view never regresses. In-progress tmp files are skipped
// entirely. An intact record that does not decode or breaks a journal
// rule fails the Snapshot with ReadCheckpoint's error.
//
// Parsed segments are cached keyed by (size, mtime), so a poll of an
// N-segment directory reads only the segments that changed since the
// last poll — normally just the newly published ones.
//
// A Watcher is not goroutine-safe; poll it from one goroutine.
type Watcher struct {
	dir  string
	segs map[segKey]segment
	// cellsTotal caches the shard's assigned-cell count once the header
	// is known (computing it enumerates the grid); -1 until then.
	cellsTotal int
}

// segKey identifies one version of a segment file.
type segKey struct {
	name          string
	size, mtimeNs int64
}

// Snapshot is one consistent view of a shard's progress.
type Snapshot struct {
	// Header identifies the shard (valid once at least segment 0 has
	// been published and read intact).
	Header Header
	// CellsDone / CellsTotal count journaled complete cells against the
	// shard's assignment.
	CellsDone  int
	CellsTotal int
	// ReplicasDone counts journaled replicas of cells still in flight
	// (nonzero only under per-replica checkpointing).
	ReplicasDone int
	// Interactions / Transmissions total everything journaled so far,
	// including in-flight cells' replica records.
	Interactions  float64
	Transmissions int
	// Progress is the shard's advisory progress record, if present and
	// intact; nil otherwise.
	Progress *Progress
}

// NewWatcher tails the checkpoint directory at dir.
func NewWatcher(dir string) *Watcher {
	return &Watcher{dir: dir, cellsTotal: -1}
}

// Snapshot polls the directory and returns the current progress view.
// A directory with no published segments, or none whose header reads
// intact yet, is ErrNoCheckpoint.
func (w *Watcher) Snapshot() (*Snapshot, error) {
	nums, err := segments.List(nil, w.dir)
	if err != nil {
		return nil, err
	}
	if len(nums) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, w.dir)
	}
	cp := newCheckpoint()
	parsed := make(map[segKey]segment, len(nums))
	for _, n := range nums {
		name := segments.Name(n)
		seg, err := w.parse(name, parsed)
		if err != nil {
			return nil, err
		}
		if err := cp.fold(name, seg); err != nil && !errors.Is(err, recordlog.ErrCorrupt) {
			return nil, err
		}
	}
	w.segs = parsed
	if cp.header.Version == 0 {
		return nil, fmt.Errorf("%w: no readable header yet", ErrNoCheckpoint)
	}
	if w.cellsTotal < 0 {
		cells, err := cp.header.Grid.Cells()
		if err != nil {
			return nil, err
		}
		w.cellsTotal = 0
		for i := range cells {
			if sweep.ShardOf(i, cp.header.ShardCount) == cp.header.ShardIndex {
				w.cellsTotal++
			}
		}
	}
	t := cp.tally
	snap := &Snapshot{
		Header: cp.header, CellsDone: t.cellsDone, CellsTotal: w.cellsTotal,
		ReplicasDone: t.replicasDone, Interactions: t.interactions, Transmissions: t.transmissions,
	}
	if p, err := ReadProgress(w.dir); err == nil {
		snap.Progress = p
	}
	return snap, nil
}

// parse returns segment name as parsed, reusing the last poll's parse
// while its (size, mtime) is unchanged, and records it in parsed. A
// segment that vanishes after the listing — a repair removing a torn
// segment that kept no intact record — reads as empty.
func (w *Watcher) parse(name string, parsed map[segKey]segment) (segment, error) {
	path := filepath.Join(w.dir, name)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return segment{}, nil
	}
	if err != nil {
		return segment{}, err
	}
	key := segKey{name: name, size: fi.Size(), mtimeNs: fi.ModTime().UnixNano()}
	seg, ok := w.segs[key]
	if !ok {
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return segment{}, nil
		}
		if err != nil {
			return segment{}, err
		}
		seg = parseSegment(name, raw)
	}
	parsed[key] = seg
	return seg, nil
}
