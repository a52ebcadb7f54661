package sweepd

import (
	"fmt"
	"math"
	"sync"
	"time"

	"doda/internal/chaos"
	"doda/internal/sweep"
)

// Options tunes one checkpointed sweep execution.
type Options struct {
	// Workers is the in-process worker count (< 1 = GOMAXPROCS), passed
	// through to sweep.Run.
	Workers int
	// ShardIndex/ShardCount select which slice of the cell index space
	// this process covers: the cells with sweep.ShardOf(index,
	// ShardCount) == ShardIndex. ShardCount < 2 means the whole grid.
	// m processes running shards 0..m-1 (any mix of hosts) cover the
	// grid exactly once; Merge stitches their checkpoints back together.
	ShardIndex int
	ShardCount int
	// Resume loads an existing checkpoint from the directory and skips
	// its journaled cells; the directory may also be empty (a run killed
	// before its first checkpoint). Without Resume the directory must
	// not already hold a checkpoint.
	Resume bool
	// OnResult, when non-nil, receives every one of this shard's cell
	// results — journaled ones replayed from the checkpoint and fresh
	// ones alike — in cell-index order, so a resumed run's output stream
	// is byte-identical to an uninterrupted one. A non-nil error aborts
	// the sweep (the checkpoint keeps everything journaled so far).
	OnResult func(sweep.CellResult) error
	// AfterCheckpoint, when non-nil, runs after each fresh cell is
	// journaled and emitted, with the number of this shard's cells done
	// so far (including restored ones) and the shard's total. A non-nil
	// error aborts the sweep at that cell boundary — the hook the
	// crash-resume tests use to kill a sweep deterministically.
	AfterCheckpoint func(done, total int) error
	// PerReplica selects replica-granularity durability: every completed
	// replica of an in-flight cell is journaled in its own fsynced
	// segment, so a crash mid-cell resumes from the last replica instead
	// of re-running the whole cell. Resume stays byte-identical either
	// way (the journaled prefix replays through the same fold, and the
	// remaining replicas draw the same seed stream). Worth it only when
	// a single cell's replicas dwarf a segment fsync — huge-n cells.
	PerReplica bool
	// AfterReplica, when non-nil, runs after each fresh replica is
	// journaled (PerReplica only), with the cell index and that cell's
	// completed-replica count so far. A non-nil error aborts the sweep at
	// that replica boundary — the mid-cell crash tests' kill hook.
	AfterReplica func(cellIndex, repsDone int) error
	// OnProgress, when non-nil, observes every progress record flushed to
	// the checkpoint directory (called under the progress lock; keep it
	// cheap). The CLI's stderr progress line hangs off it.
	OnProgress func(Progress)
	// ProgressEvery throttles progress flushes: at most one per interval
	// (plus a final one marking the shard done). Zero means a 500ms
	// default; negative disables the progress layer entirely — no
	// progress.json, no OnProgress calls.
	ProgressEvery time.Duration
	// FS is the filesystem the journal's write path publishes through
	// (nil = the real disk). Chaos tests and the CLI's fault-injection
	// flags hand a chaos.FaultFS in here; everything else leaves it nil.
	FS chaos.FS
}

// defaultProgressEvery is the progress flush throttle when Options leaves
// ProgressEvery zero.
const defaultProgressEvery = 500 * time.Millisecond

// Run executes one shard of the grid with per-cell checkpointing in dir.
// It returns the shard's cell results in cell-index order plus the
// shard's totals. Resumed runs return results byte-identical (through
// JSON) to an uninterrupted run of the same shard: restored cells
// round-trip exactly, fresh cells are deterministic by the cell-seed
// contract, and totals fold the exact per-cell accumulators in the same
// index order either way.
func Run(grid sweep.Grid, dir string, opt Options) ([]sweep.CellResult, sweep.Totals, error) {
	shards := opt.ShardCount
	if shards < 1 {
		shards = 1
	}
	if opt.ShardIndex < 0 || opt.ShardIndex >= shards {
		return nil, sweep.Totals{}, fmt.Errorf("sweepd: shard index %d outside [0,%d)", opt.ShardIndex, shards)
	}
	if dir == "" {
		return nil, sweep.Totals{}, fmt.Errorf("sweepd: empty checkpoint directory")
	}
	cells, err := grid.Cells()
	if err != nil {
		return nil, sweep.Totals{}, err
	}
	inShard := sweep.ShardSelect(opt.ShardIndex, shards)
	mine := make([]sweep.Cell, 0, len(cells)/shards+1)
	for _, c := range cells {
		if inShard(c) {
			mine = append(mine, c)
		}
	}

	var (
		j  *Journal
		cp *checkpoint
	)
	fsys := fsOf(opt.FS)
	if opt.Resume {
		j, cp, err = openResumeFS(fsys, dir, grid, opt.ShardIndex, shards)
	} else {
		j, err = createFS(fsys, dir, grid, opt.ShardIndex, shards)
		cp = newCheckpoint()
	}
	if err != nil {
		return nil, sweep.Totals{}, err
	}

	restored := make(map[int]sweep.CellResult, len(cp.records))
	for _, rec := range cp.records {
		if rec.Index < 0 || rec.Index >= len(cells) {
			return nil, sweep.Totals{}, fmt.Errorf("%w: cell index %d outside grid of %d cells",
				ErrStaleCheckpoint, rec.Index, len(cells))
		}
		if sweep.ShardOf(rec.Index, shards) != opt.ShardIndex {
			return nil, sweep.Totals{}, fmt.Errorf("%w: cell %d belongs to shard %d, not %d",
				ErrStaleCheckpoint, rec.Index, sweep.ShardOf(rec.Index, shards), opt.ShardIndex)
		}
		if err := cellMatches(cells[rec.Index], rec.Result.Cell); err != nil {
			return nil, sweep.Totals{}, err
		}
		restored[rec.Index] = rec.Restore()
	}
	for idx, outs := range cp.replicas {
		if idx < 0 || idx >= len(cells) {
			return nil, sweep.Totals{}, fmt.Errorf("%w: replica cell index %d outside grid of %d cells",
				ErrStaleCheckpoint, idx, len(cells))
		}
		if sweep.ShardOf(idx, shards) != opt.ShardIndex {
			return nil, sweep.Totals{}, fmt.Errorf("%w: replica cell %d belongs to shard %d, not %d",
				ErrStaleCheckpoint, idx, sweep.ShardOf(idx, shards), opt.ShardIndex)
		}
		if len(outs) > grid.Replicas {
			return nil, sweep.Totals{}, fmt.Errorf("%w: cell %d has %d journaled replicas, grid configures %d",
				ErrStaleCheckpoint, idx, len(outs), grid.Replicas)
		}
	}

	// Observability state. The journal mutex serialises the two paths
	// that write segments — per-replica appends from worker goroutines
	// and per-cell appends from the emitter lock. Wall times ride a side
	// channel from OnCellWall (which fires before the cell's OnResult)
	// to the journal write, keeping machine speed out of CellResult.
	var (
		jmu    sync.Mutex
		wallMu sync.Mutex
		walls  = make(map[int]float64)
	)
	var prog *progressTracker
	if opt.ProgressEvery >= 0 {
		prog = newProgressTracker(fsys, dir, opt.ProgressEvery, opt.OnProgress, len(mine), cp.tally)
	}

	// The emit path: fresh results arrive in increasing cell-index order
	// among the cells actually run (sweep.Run's ordered-streaming
	// contract), and the restored cells fill the gaps between them — so a
	// single cursor over this shard's cell list merges the two streams in
	// full index order. All of this runs inside sweep.Run's emitter lock,
	// so no extra synchronisation is needed.
	fresh := make(map[int]sweep.CellResult, len(mine)-len(restored))
	pos := 0
	done := len(restored)
	flushThrough := func(limit int) error {
		for pos < len(mine) && mine[pos].Index < limit {
			r, ok := restored[mine[pos].Index]
			if !ok {
				return fmt.Errorf("sweepd: internal error: cell %d neither restored nor run", mine[pos].Index)
			}
			if opt.OnResult != nil {
				if err := opt.OnResult(r); err != nil {
					return err
				}
			}
			pos++
		}
		return nil
	}

	sopt := sweep.Options{
		Workers: opt.Workers,
		Select: func(c sweep.Cell) bool {
			if !inShard(c) {
				return false
			}
			_, skip := restored[c.Index]
			return !skip
		},
		OnCellWall: func(c sweep.Cell, wall time.Duration) {
			wallMu.Lock()
			walls[c.Index] = float64(wall.Nanoseconds()) / 1e6
			wallMu.Unlock()
		},
		OnResult: func(r sweep.CellResult) error {
			if err := flushThrough(r.Index); err != nil {
				return err
			}
			if pos >= len(mine) || mine[pos].Index != r.Index {
				return fmt.Errorf("sweepd: internal error: fresh cell %d out of order", r.Index)
			}
			// Journal before emitting: a crash between the two re-runs
			// nothing (the resumed run re-emits the whole stream anyway),
			// while the opposite order could emit a cell that was never
			// made durable.
			wallMu.Lock()
			wms := walls[r.Index]
			delete(walls, r.Index)
			wallMu.Unlock()
			jmu.Lock()
			j.AppendTimed(r, wms)
			cerr := j.Checkpoint()
			jmu.Unlock()
			if cerr != nil {
				return cerr
			}
			fresh[r.Index] = r
			if prog != nil {
				prog.cellDone(r)
			}
			if opt.OnResult != nil {
				if err := opt.OnResult(r); err != nil {
					return err
				}
			}
			pos++
			done++
			if opt.AfterCheckpoint != nil {
				if err := opt.AfterCheckpoint(done, len(mine)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	if len(cp.replicas) > 0 {
		// The map is read-only for the whole run, so worker goroutines
		// can consult it without locking.
		sopt.ResumeReplicas = func(c sweep.Cell) []sweep.ReplicaOutcome {
			return cp.replicas[c.Index]
		}
	}
	if opt.PerReplica || prog != nil {
		sopt.OnReplica = func(c sweep.Cell, rep int, out sweep.ReplicaOutcome) error {
			if opt.PerReplica && rep < grid.Replicas-1 {
				// The final replica is never journaled on its own: the
				// cell record that follows immediately folds it, and a
				// crash in the gap merely re-runs that one replica.
				jmu.Lock()
				j.AppendReplica(c.Index, rep, out)
				cerr := j.Checkpoint()
				jmu.Unlock()
				if cerr != nil {
					return cerr
				}
			}
			if prog != nil {
				prog.replicaDone(c.Index, out)
			}
			if opt.PerReplica && opt.AfterReplica != nil {
				return opt.AfterReplica(c.Index, rep+1)
			}
			return nil
		}
	}
	_, _, err = sweep.Run(grid, sopt)
	if err != nil {
		return nil, sweep.Totals{}, err
	}
	if err := flushThrough(math.MaxInt); err != nil {
		return nil, sweep.Totals{}, err
	}
	if prog != nil {
		prog.finish()
	}

	out := make([]sweep.CellResult, len(mine))
	for i, c := range mine {
		r, ok := fresh[c.Index]
		if !ok {
			r = restored[c.Index]
		}
		out[i] = r
	}
	return out, sweep.TotalsOf(out), nil
}

// progressTracker feeds the shard's tally from live replicas and cells
// and flushes it — throttled — as the advisory progress record.
type progressTracker struct {
	mu    sync.Mutex
	fs    chaos.FS
	dir   string
	start time.Time
	every time.Duration
	last  time.Time
	on    func(Progress)
	p     Progress
	tally tally
}

// newProgressTracker starts from the tally of the checkpoint's restored
// records.
func newProgressTracker(fsys chaos.FS, dir string, every time.Duration, on func(Progress), total int, restored tally) *progressTracker {
	if every == 0 {
		every = defaultProgressEvery
	}
	now := time.Now()
	// last starts at now, not zero: the first record flushes one throttle
	// interval in, like every later one. Sweeps shorter than the interval
	// write only the final record — the fixed cost of being observable
	// must not register on runs too short to observe.
	return &progressTracker{
		fs: fsOf(fsys), dir: dir, start: now, every: every, last: now, on: on,
		p: Progress{CellsTotal: total}, tally: restored,
	}
}

func (t *progressTracker) replicaDone(idx int, out sweep.ReplicaOutcome) {
	t.mu.Lock()
	t.tally.replica(idx, out)
	t.maybeFlush()
	t.mu.Unlock()
}

func (t *progressTracker) cellDone(r sweep.CellResult) {
	t.mu.Lock()
	t.tally.cell(r)
	t.p.FreshCells++
	t.maybeFlush()
	t.mu.Unlock()
}

func (t *progressTracker) maybeFlush() {
	now := time.Now()
	if now.Sub(t.last) < t.every {
		return
	}
	t.last = now
	t.flushLocked()
}

// flushLocked writes the progress record. The write is best-effort by
// contract: an advisory file must never be able to abort a sweep, so its
// error is dropped.
func (t *progressTracker) flushLocked() {
	t.p.CellsDone, t.p.ReplicasDone = t.tally.cellsDone, t.tally.replicasDone
	t.p.Interactions, t.p.Transmissions = t.tally.interactions, t.tally.transmissions
	t.p.ElapsedMs = float64(time.Since(t.start).Nanoseconds()) / 1e6
	p := t.p
	_ = writeProgress(t.fs, t.dir, p)
	if t.on != nil {
		t.on(p)
	}
}

// finish flushes the final record, marking the shard done when every
// assigned cell is journaled.
func (t *progressTracker) finish() {
	t.mu.Lock()
	t.p.Done = t.tally.cellsDone == t.p.CellsTotal
	t.flushLocked()
	t.mu.Unlock()
}

// cellMatches verifies a journaled cell's identity against the grid's
// cell at the same index — a belt-and-braces check behind the fingerprint
// (which already pins the whole grid).
func cellMatches(want, got sweep.Cell) error {
	if want.Index != got.Index || want.Seed != got.Seed || want.N != got.N ||
		want.Algorithm != got.Algorithm || want.Provenance != got.Provenance ||
		want.Scenario.String() != got.Scenario.String() {
		return fmt.Errorf("%w: journaled cell %d is %s/%s/n=%d seed=%d, grid expects %s/%s/n=%d seed=%d",
			ErrStaleCheckpoint, got.Index, got.Scenario, got.Algorithm, got.N, got.Seed,
			want.Scenario, want.Algorithm, want.N, want.Seed)
	}
	return nil
}

// Merge stitches the checkpoints of a complete m-way sharded sweep back
// into the single-process result stream: every dir must hold one finished
// shard of the same grid (same fingerprint, same shard count, each shard
// index exactly once, every shard cell journaled). It returns all cell
// results in cell-index order plus the fleet totals, both byte-identical
// (through JSON) to an uninterrupted unsharded run — the totals because
// they fold the exact journaled per-cell accumulators in cell-index
// order, exactly as sweep.Run does.
func Merge(dirs []string) ([]sweep.CellResult, sweep.Totals, error) {
	_, results, totals, err := LoadFleet(dirs)
	return results, totals, err
}

// LoadFleet is the one checkpoint-directory validation path every
// cross-checkpoint consumer shares: `dodasweep merge` and `dodasweep
// analyze` both read fleets through it, so a stale or foreign journal
// fails with the same grid-fingerprint error no matter which subcommand
// tripped over it. It reads and cross-validates the checkpoints of a
// complete sharded sweep (a single unsharded checkpoint is the
// one-directory case) and returns the fleet's identity header plus all
// cell results in cell-index order and the exact fleet totals.
func LoadFleet(dirs []string) (Header, []sweep.CellResult, sweep.Totals, error) {
	base, results, haveCell, err := loadFleet(dirs, false)
	if err != nil {
		return Header{}, nil, sweep.Totals{}, err
	}
	missing := 0
	firstMissing := -1
	for i, ok := range haveCell {
		if !ok {
			missing++
			if firstMissing < 0 {
				firstMissing = i
			}
		}
	}
	if missing > 0 {
		return Header{}, nil, sweep.Totals{}, fmt.Errorf(
			"sweepd: %d cell(s) missing (first: cell %d, shard %d not finished — resume it before merging or analyzing)",
			missing, firstMissing, sweep.ShardOf(firstMissing, base.ShardCount))
	}
	return base, results, sweep.TotalsOf(results), nil
}

// LoadFleetPartial reads however much of a fleet exists right now: the
// directories may cover only some shards, and any shard may be mid-run.
// Validation is the same as LoadFleet minus the completeness checks —
// fingerprints must agree, no shard or cell may appear twice, every
// journaled cell must match the grid. It returns the fleet identity, the
// complete cells present (in cell-index order), and the grid's total
// cell count, so callers can annotate coverage. Partial analysis builds
// on it.
func LoadFleetPartial(dirs []string) (Header, []sweep.CellResult, int, error) {
	base, results, haveCell, err := loadFleet(dirs, true)
	if err != nil {
		return Header{}, nil, 0, err
	}
	present := make([]sweep.CellResult, 0, len(results))
	for i, ok := range haveCell {
		if ok {
			present = append(present, results[i])
		}
	}
	return base, present, len(haveCell), nil
}

// loadFleet is the shared walk behind LoadFleet and LoadFleetPartial:
// it reads every directory, cross-validates identities, and returns the
// grid-indexed results plus the per-cell presence mask. partial relaxes
// only the directories-must-cover-every-shard check.
func loadFleet(dirs []string, partial bool) (Header, []sweep.CellResult, []bool, error) {
	if len(dirs) == 0 {
		return Header{}, nil, nil, fmt.Errorf("sweepd: need at least one checkpoint directory")
	}
	var (
		base     Header
		results  []sweep.CellResult
		haveCell []bool
		cells    []sweep.Cell
		seenDir  []string
	)
	fail := func(err error) (Header, []sweep.CellResult, []bool, error) {
		return Header{}, nil, nil, err
	}
	for di, dir := range dirs {
		h, recs, err := ReadCheckpoint(dir)
		if err != nil {
			return fail(fmt.Errorf("sweepd: fleet %s: %w", dir, err))
		}
		if di == 0 {
			base = h
			// Re-derive the cell list from the journaled grid and verify
			// the fingerprint actually matches it, so a hand-edited
			// header cannot relabel foreign results.
			fp, err := h.Grid.Fingerprint()
			if err != nil {
				return fail(fmt.Errorf("sweepd: fleet %s: %w", dir, err))
			}
			if fp != h.Fingerprint {
				return fail(fmt.Errorf("%w: %s: header fingerprint does not match its own grid", ErrCorrupt, dir))
			}
			if cells, err = h.Grid.Cells(); err != nil {
				return fail(fmt.Errorf("sweepd: fleet %s: %w", dir, err))
			}
			if !partial && h.ShardCount != len(dirs) {
				return fail(fmt.Errorf("sweepd: checkpoint declares %d shard(s), got %d directories",
					h.ShardCount, len(dirs)))
			}
			if partial && len(dirs) > h.ShardCount {
				return fail(fmt.Errorf("sweepd: checkpoint declares %d shard(s), got %d directories",
					h.ShardCount, len(dirs)))
			}
			results = make([]sweep.CellResult, len(cells))
			haveCell = make([]bool, len(cells))
			seenDir = make([]string, h.ShardCount)
		} else {
			if h.Fingerprint != base.Fingerprint || h.Version != base.Version {
				return fail(fmt.Errorf("%w: %s holds a different grid than %s (fingerprint %.12s, want %.12s)",
					ErrStaleCheckpoint, dir, dirs[0], h.Fingerprint, base.Fingerprint))
			}
			if h.ShardCount != base.ShardCount {
				return fail(fmt.Errorf("%w: %s declares %d shards, %s declares %d",
					ErrStaleCheckpoint, dir, h.ShardCount, dirs[0], base.ShardCount))
			}
		}
		if h.ShardIndex < 0 || h.ShardIndex >= base.ShardCount {
			return fail(fmt.Errorf("%w: %s: shard index %d outside [0,%d)",
				ErrCorrupt, dir, h.ShardIndex, base.ShardCount))
		}
		if prev := seenDir[h.ShardIndex]; prev != "" {
			return fail(fmt.Errorf("sweepd: %s and %s both hold shard %d", prev, dir, h.ShardIndex))
		}
		seenDir[h.ShardIndex] = dir
		for _, rec := range recs {
			if rec.Index < 0 || rec.Index >= len(cells) {
				return fail(fmt.Errorf("%w: %s: cell index %d outside grid of %d cells",
					ErrCorrupt, dir, rec.Index, len(cells)))
			}
			if sweep.ShardOf(rec.Index, base.ShardCount) != h.ShardIndex {
				return fail(fmt.Errorf("%w: %s: cell %d belongs to shard %d, not %d",
					ErrCorrupt, dir, rec.Index, sweep.ShardOf(rec.Index, base.ShardCount), h.ShardIndex))
			}
			if haveCell[rec.Index] {
				return fail(fmt.Errorf("%w: cell %d journaled by more than one shard", ErrCorrupt, rec.Index))
			}
			if err := cellMatches(cells[rec.Index], rec.Result.Cell); err != nil {
				return fail(fmt.Errorf("sweepd: fleet %s: %w", dir, err))
			}
			results[rec.Index] = rec.Restore()
			haveCell[rec.Index] = true
		}
	}
	return base, results, haveCell, nil
}
