package sweepd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"doda/internal/recordlog"
	"doda/internal/sweep"
)

// Watcher tails one shard's live checkpoint directory read-only. It
// never writes, repairs, or locks anything, so it can run against a
// directory another process is actively journaling into. Safety comes
// from the journal's publication discipline — segments appear atomically
// (tmp + rename) and are immutable once published — plus deliberate
// tolerance for the two transient shapes a live or crashed writer can
// leave: a torn tail (the valid prefix is counted, the tail ignored;
// a resumed writer's repair keeps exactly that prefix, so the view never
// regresses) and in-progress tmp files (skipped entirely). Semantic
// corruption on intact lines — duplicate cells, disagreeing headers —
// still surfaces as an error, exactly like ReadCheckpoint.
//
// Parsed segments are cached keyed by (size, mtime), so a poll of an
// N-segment directory reads only the segments that changed since the
// last poll — normally just the newly published ones.
//
// A Watcher is not goroutine-safe; poll it from one goroutine.
type Watcher struct {
	dir  string
	segs map[string]*segView
	// shardCells caches the shard's assigned-cell count once the header
	// is known (computing it enumerates the grid).
	shardCells int
	haveCells  bool
}

// segView is one cached parsed segment: totals only, never raw records,
// so a long-running watch holds O(cells) tiny structs.
type segView struct {
	size    int64
	mtimeNs int64
	header  Header
	cells   []cellView
	reps    []repView
}

type cellView struct {
	index         int
	interactions  float64
	transmissions int
	wallMs        float64
}

type repView struct {
	cell, rep     int
	interactions  float64
	transmissions int
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
	// WallMsSum is the summed journaled per-cell wall time — the basis
	// for cells/sec and ETA estimates that survive process restarts.
	WallMsSum float64
	// DoneIndexes lists the journaled complete cell indexes in journal
	// order (partial analysis and merge previews build on it).
	DoneIndexes []int
	// Progress is the shard's advisory progress record, if present and
	// intact; nil otherwise.
	Progress *Progress
}

// NewWatcher tails the checkpoint directory at dir.
func NewWatcher(dir string) *Watcher {
	return &Watcher{dir: dir, segs: make(map[string]*segView)}
}

// Snapshot polls the directory and returns the current progress view.
// A directory with no published segments yet is ErrNoCheckpoint.
func (w *Watcher) Snapshot() (*Snapshot, error) {
	nums, err := segments.List(nil, w.dir)
	if err != nil {
		return nil, err
	}
	if len(nums) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, w.dir)
	}
	names := make([]string, len(nums))
	current := make(map[string]bool, len(names))
	for i, n := range nums {
		name := segments.Name(n)
		names[i] = name
		current[name] = true
		if err := w.refresh(name); err != nil {
			return nil, err
		}
	}
	// Drop cache entries for segments a repair removed outright.
	for name := range w.segs {
		if !current[name] {
			delete(w.segs, name)
		}
	}
	return w.assemble(names)
}

// refresh (re)parses one segment if its (size, mtime) changed since the
// cached parse. A segment that vanishes between listing and stat — a
// repair racing the poll — is treated as unchanged-this-poll; the next
// poll's listing drops it.
func (w *Watcher) refresh(name string) error {
	path := filepath.Join(w.dir, name)
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if sv, ok := w.segs[name]; ok && sv.size == fi.Size() && sv.mtimeNs == fi.ModTime().UnixNano() {
		return nil
	}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	sv := &segView{size: fi.Size(), mtimeNs: fi.ModTime().UnixNano()}
	_, _, err = recordlog.Replay(bytes.NewReader(raw), 0, func(li int, body []byte) error {
		return sv.add(name, li, body)
	})
	// Damage ends the segment's valid prefix: count the prefix, ignore
	// the rest. Unlike readCheckpoint, a live reader tolerates damage in
	// any segment and at any position — it may hold a stale listing while
	// the writer repairs and appends, and the valid prefix is correct
	// either way.
	if err != nil && !errors.Is(err, recordlog.ErrCorrupt) && !errors.Is(err, errTornHeader) {
		return err
	}
	w.segs[name] = sv
	return nil
}

// errTornHeader stops a segment whose header record does not parse yet:
// the Watcher treats it as empty for now.
var errTornHeader = errors.New("header does not parse")

// add folds one intact record of segment name into the view.
func (sv *segView) add(name string, li int, body []byte) error {
	if li == 0 {
		h, err := decodeHeader(name, body)
		if errors.Is(err, ErrCorrupt) {
			return errTornHeader
		}
		sv.header = h
		return err
	}
	cell, rep, err := decodeRecord(name, li, body)
	switch {
	case err != nil:
		return err
	case cell != nil:
		m := cell.Result.Interactions
		sv.cells = append(sv.cells, cellView{
			index:         cell.Index,
			interactions:  m.Mean * float64(m.Count),
			transmissions: cell.Result.Transmissions,
			wallMs:        cell.WallMs,
		})
	default:
		sv.reps = append(sv.reps, repView{
			cell: rep.CellIndex, rep: rep.Rep,
			interactions:  rep.Out.Interactions,
			transmissions: rep.Out.Transmissions,
		})
	}
	return nil
}

// assemble folds the cached segment views, in segment order, into one
// snapshot, enforcing the same semantic invariants as readCheckpoint:
// one header identity, no duplicate cells, contiguous replica prefixes.
func (w *Watcher) assemble(names []string) (*Snapshot, error) {
	snap := &Snapshot{}
	headerKnown := false
	done := make(map[int]string)
	repSeen := make(map[int]int)
	repInts := make(map[int]float64)
	repTrans := make(map[int]int)
	for _, name := range names {
		sv, ok := w.segs[name]
		if !ok {
			continue // vanished mid-poll; next poll settles it
		}
		if sv.header.Version != 0 {
			if !headerKnown {
				snap.Header = sv.header
				headerKnown = true
			} else if !snap.Header.matches(sv.header) {
				return nil, fmt.Errorf("%w: segment %s header disagrees with earlier segments", ErrStaleCheckpoint, name)
			}
		}
		for _, rv := range sv.reps {
			if prev, isDone := done[rv.cell]; isDone {
				return nil, fmt.Errorf("%w: replica record for cell %d in %s after its cell record in %s",
					ErrCorrupt, rv.cell, name, prev)
			}
			if rv.rep != repSeen[rv.cell] {
				return nil, fmt.Errorf("%w: cell %d replica %d in %s but %d replica(s) precede it",
					ErrCorrupt, rv.cell, rv.rep, name, repSeen[rv.cell])
			}
			repSeen[rv.cell]++
			repInts[rv.cell] += rv.interactions
			repTrans[rv.cell] += rv.transmissions
		}
		for _, cv := range sv.cells {
			if prev, dup := done[cv.index]; dup {
				return nil, fmt.Errorf("%w: cell %d journaled in both %s and %s", ErrCorrupt, cv.index, prev, name)
			}
			done[cv.index] = name
			snap.DoneIndexes = append(snap.DoneIndexes, cv.index)
			snap.Interactions += cv.interactions
			snap.Transmissions += cv.transmissions
			snap.WallMsSum += cv.wallMs
			// The cell record folds its replica prefix; drop the prefix
			// so only in-flight cells contribute replica-level counts.
			delete(repSeen, cv.index)
			delete(repInts, cv.index)
			delete(repTrans, cv.index)
		}
	}
	if !headerKnown {
		return nil, fmt.Errorf("%w: no readable header yet", ErrNoCheckpoint)
	}
	snap.CellsDone = len(done)
	for idx, n := range repSeen {
		snap.ReplicasDone += n
		snap.Interactions += repInts[idx]
		snap.Transmissions += repTrans[idx]
	}
	if !w.haveCells {
		cells, err := snap.Header.Grid.Cells()
		if err != nil {
			return nil, err
		}
		count := 0
		for i := range cells {
			if sweep.ShardOf(i, snap.Header.ShardCount) == snap.Header.ShardIndex {
				count++
			}
		}
		w.shardCells = count
		w.haveCells = true
	}
	snap.CellsTotal = w.shardCells
	if p, err := ReadProgress(w.dir); err == nil {
		snap.Progress = p
	}
	return snap, nil
}
