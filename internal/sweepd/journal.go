package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"doda/internal/chaos"
	"doda/internal/recordlog"
	"doda/internal/stats"
	"doda/internal/sweep"
)

// fsOf resolves the filesystem seam: nil means the real disk. The seam
// covers the journal's write path (segment publish, torn-tail repair,
// progress records) — the deterministic chaos.FaultFS injects disk
// faults through it; readers stay on plain os.
func fsOf(f chaos.FS) chaos.FS {
	if f == nil {
		return chaos.Disk
	}
	return f
}

// Sentinel errors callers branch on.
var (
	// ErrNoCheckpoint reports a directory holding no checkpoint segments.
	ErrNoCheckpoint = errors.New("sweepd: no checkpoint in directory")
	// ErrStaleCheckpoint reports a checkpoint written for a different
	// grid (fingerprint mismatch) or a different shard layout — resuming
	// from it would smuggle another sweep's results into this one.
	ErrStaleCheckpoint = errors.New("sweepd: stale checkpoint")
	// ErrCheckpointExists reports a non-resume run pointed at a directory
	// that already holds a checkpoint.
	ErrCheckpointExists = errors.New("sweepd: checkpoint already exists (resume to continue it)")
	// ErrCorrupt reports an unrecoverable checkpoint record: a crc or
	// parse failure anywhere but the torn tail of the final segment.
	ErrCorrupt = errors.New("sweepd: corrupt checkpoint")
)

// recordVersion is the checkpoint schema version; readers reject other
// versions rather than guessing at their layout.
const recordVersion = 1

// segments names a checkpoint's immutable segment files,
// seg-00000000.jsonl upward.
var segments = recordlog.Series{Prefix: "seg-", Suffix: ".jsonl"}

// Header is the first record of every checkpoint segment: the identity a
// resume or merge validates before trusting a single cell record.
type Header struct {
	Version     int        `json:"version"`
	Fingerprint string     `json:"fingerprint"`
	ShardIndex  int        `json:"shard_index"`
	ShardCount  int        `json:"shard_count"`
	Grid        sweep.Grid `json:"grid"`
}

// CellRecord journals one completed cell: the result exactly as the
// streaming JSONL output encodes it, plus the cell's raw duration
// accumulator (which the rounded Duration metric cannot reconstruct) so
// resumed and merged totals fold bit-for-bit like an uninterrupted run.
// WallMs is the wall-clock cost of the cell's fresh replicas — pure
// observability metadata for tools that read the journal (per-layer
// timing) that never feeds the deterministic result stream.
type CellRecord struct {
	Index  int                `json:"index"`
	Result sweep.CellResult   `json:"result"`
	DurAcc stats.WelfordState `json:"dur_acc"`
	WallMs float64            `json:"wall_ms,omitempty"`
}

// newCellRecord snapshots a completed cell for the journal.
func newCellRecord(r sweep.CellResult) CellRecord {
	w := r.DurationAcc()
	return CellRecord{Index: r.Index, Result: r, DurAcc: w.State()}
}

// ReplicaRecord journals one completed replica of a cell that has not
// finished yet — the replica-granularity checkpoint record behind
// Options.PerReplica, so huge-n cells survive mid-cell crashes. Out is
// exactly what sweep folds into the cell accumulators; replaying the
// journaled prefix and running the remaining replicas reproduces the
// cell byte-for-byte. Within one cell, records are journaled in replica
// order and must read back contiguous from replica 0.
type ReplicaRecord struct {
	CellIndex int                  `json:"cell"`
	Rep       int                  `json:"rep"`
	Out       sweep.ReplicaOutcome `json:"out"`
}

// Restore rebuilds the in-memory cell result, re-attaching the duration
// accumulator JSON could not carry inside Result.
func (c CellRecord) Restore() sweep.CellResult {
	r := c.Result
	r.SetDurationAcc(stats.WelfordFromState(c.DurAcc))
	return r
}

// headerFor builds the checkpoint identity of a (grid, shard) pair.
func headerFor(grid sweep.Grid, shardIndex, shardCount int) (Header, error) {
	fp, err := grid.Fingerprint()
	if err != nil {
		return Header{}, err
	}
	return Header{
		Version:     recordVersion,
		Fingerprint: fp,
		ShardIndex:  shardIndex,
		ShardCount:  shardCount,
		Grid:        grid,
	}, nil
}

// matches reports whether two headers name the same checkpoint stream.
func (h Header) matches(o Header) bool {
	return h.Version == o.Version && h.Fingerprint == o.Fingerprint &&
		h.ShardIndex == o.ShardIndex && h.ShardCount == o.ShardCount
}

// Journal is an open checkpoint being written. Append buffers completed
// cells; Checkpoint flushes the buffer as one new immutable segment.
// Methods are not goroutine-safe: the sweep service calls them from the
// ordered emit path, which is already serialised.
//
// The service checkpoints once per cell, so a C-cell shard writes C
// small segments and pays a file+directory fsync per cell. That is the
// deliberate durability granularity: the grids this exists for spend
// far longer running a cell (replicas × up to millions of interactions)
// than publishing a segment, and immutable rename-published segments
// keep crash recovery trivial. Callers with very cheap cells can batch
// several Appends per Checkpoint to amortise the cost.
type Journal struct {
	fs      chaos.FS
	dir     string
	header  Header
	nextSeg int
	buf     []any // CellRecord | ReplicaRecord, in journal order
}

// Create starts a fresh checkpoint in dir for one shard of the grid. The
// directory is created if needed; it must not already hold a checkpoint
// (ErrCheckpointExists — resume instead). Leftover tmp files from a
// crashed writer are removed. Segment 0, carrying only the header, is
// written immediately so even a run killed before its first cell leaves a
// resumable, identity-checked checkpoint behind.
func Create(dir string, grid sweep.Grid, shardIndex, shardCount int) (*Journal, error) {
	return createFS(chaos.Disk, dir, grid, shardIndex, shardCount)
}

// createFS is Create through an explicit filesystem seam.
func createFS(fsys chaos.FS, dir string, grid sweep.Grid, shardIndex, shardCount int) (*Journal, error) {
	h, err := headerFor(grid, shardIndex, shardCount)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	nums, err := segments.List(fsys, dir, progressPrefix)
	if err != nil {
		return nil, err
	}
	if len(nums) > 0 {
		return nil, fmt.Errorf("%w: %s has %d segment(s)", ErrCheckpointExists, dir, len(nums))
	}
	j := &Journal{fs: fsys, dir: dir, header: h, nextSeg: 0}
	if err := j.writeRecords(nil); err != nil {
		return nil, err
	}
	return j, nil
}

// Open resumes an existing checkpoint in dir, validating its identity
// against the (grid, shard) pair the caller is about to run: a
// fingerprint or shard-layout mismatch is ErrStaleCheckpoint. A directory
// with no checkpoint at all is treated as fresh (a run killed before its
// first checkpoint resumes from zero). If the final segment has a torn
// tail, the valid prefix is kept and the segment is atomically rewritten
// without the tail, so the repair is durable and the next reader never
// sees mid-stream corruption.
func Open(dir string, grid sweep.Grid, shardIndex, shardCount int) (*Journal, []CellRecord, error) {
	j, recs, _, err := OpenResume(dir, grid, shardIndex, shardCount)
	return j, recs, err
}

// OpenResume is Open plus the journaled replica prefixes of cells that
// have not completed: cell index → outcomes in replica order, ready to
// hand to sweep.Options.ResumeReplicas.
func OpenResume(dir string, grid sweep.Grid, shardIndex, shardCount int) (*Journal, []CellRecord, map[int][]sweep.ReplicaOutcome, error) {
	j, cp, err := openResumeFS(chaos.Disk, dir, grid, shardIndex, shardCount)
	if err != nil {
		return nil, nil, nil, err
	}
	return j, cp.records, cp.replicas, nil
}

// openResumeFS is OpenResume through an explicit filesystem seam,
// returning the whole fold of what the checkpoint holds (empty when it
// starts fresh).
func openResumeFS(fsys chaos.FS, dir string, grid sweep.Grid, shardIndex, shardCount int) (*Journal, *checkpoint, error) {
	h, err := headerFor(grid, shardIndex, shardCount)
	if err != nil {
		return nil, nil, err
	}
	cp, err := readCheckpoint(dir)
	if errors.Is(err, ErrNoCheckpoint) {
		if errors.Is(err, errGenesisTorn) {
			nums, nerr := segments.List(fsys, dir, progressPrefix)
			if nerr != nil {
				return nil, nil, nerr
			}
			for _, n := range nums {
				if rerr := fsys.Remove(filepath.Join(dir, segments.Name(n))); rerr != nil {
					return nil, nil, rerr
				}
			}
			if serr := fsys.SyncDir(dir); serr != nil {
				return nil, nil, serr
			}
		}
		j, err := createFS(fsys, dir, grid, shardIndex, shardCount)
		return j, newCheckpoint(), err
	}
	if err != nil {
		return nil, nil, err
	}
	// Sweep away tmp files a crashed writer left behind; only final
	// (renamed) segments count.
	if _, err := segments.List(fsys, dir, progressPrefix); err != nil {
		return nil, nil, err
	}
	if !cp.header.matches(h) {
		return nil, nil, fmt.Errorf("%w: checkpoint is for fingerprint %.12s shard %d/%d, want %.12s shard %d/%d",
			ErrStaleCheckpoint, cp.header.Fingerprint, cp.header.ShardIndex, cp.header.ShardCount,
			h.Fingerprint, shardIndex, shardCount)
	}
	if err := cp.repair(fsys, dir); err != nil {
		return nil, nil, err
	}
	return &Journal{fs: fsys, dir: dir, header: cp.header, nextSeg: cp.nextSeg}, cp, nil
}

// Append buffers one completed cell for the next Checkpoint.
func (j *Journal) Append(r sweep.CellResult) {
	j.buf = append(j.buf, newCellRecord(r))
}

// AppendTimed is Append plus the cell's wall-clock cost in milliseconds,
// journaled for dashboards (it never feeds the result stream).
func (j *Journal) AppendTimed(r sweep.CellResult, wallMs float64) {
	rec := newCellRecord(r)
	rec.WallMs = wallMs
	j.buf = append(j.buf, rec)
}

// AppendReplica buffers one completed replica of a still-running cell.
// Replicas of a cell must be appended in replica order, and a later
// Append of the finished cell supersedes them on read-back.
func (j *Journal) AppendReplica(cellIndex, rep int, out sweep.ReplicaOutcome) {
	j.buf = append(j.buf, ReplicaRecord{CellIndex: cellIndex, Rep: rep, Out: out})
}

// Checkpoint flushes the buffered records as one new segment. A no-op
// when nothing is buffered. After it returns, the flushed cells are
// durable: a crash at any later instant resumes past them.
func (j *Journal) Checkpoint() error {
	if len(j.buf) == 0 {
		return nil
	}
	recs := j.buf
	if err := j.writeRecords(recs); err != nil {
		return err
	}
	j.buf = j.buf[:0]
	return nil
}

// writeRecords publishes one segment holding the header plus recs.
func (j *Journal) writeRecords(recs []any) error {
	hb, err := json.Marshal(j.header)
	if err != nil {
		return err
	}
	data := recordlog.AppendFrame(nil, hb)
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		data = recordlog.AppendFrame(data, b)
	}
	if err := recordlog.Publish(j.fs, j.dir, segments.Name(j.nextSeg), data); err != nil {
		return err
	}
	j.nextSeg++
	return nil
}

// segment is one parsed checkpoint segment.
type segment struct {
	// recs holds the records of the segment's intact prefix in journal
	// order: its Header, then CellRecord and ReplicaRecord values.
	recs []any
	// good is the intact prefix's length in bytes; torn reports that
	// damage with no byte after it ended the prefix.
	good int64
	torn bool
	// err, when set, is what stopped the parse short of the end: damage
	// with bytes after it (wrapping recordlog.ErrCorrupt), or an intact
	// record that does not decode.
	err error
}

// parseSegment decodes the intact prefix of one segment's bytes. Damage
// — a failed crc or unterminated bytes — ends the prefix, since
// recordlog.Replay never hands a damaged line on. An empty segment is
// torn too: every published segment starts with its header, so a file
// with no bytes is a publish that lost all of them.
func parseSegment(name string, raw []byte) segment {
	var seg segment
	seg.good, seg.torn, seg.err = recordlog.Replay(bytes.NewReader(raw), 0, func(li int, body []byte) error {
		rec, err := decodeRecord(name, li, body)
		if err == nil {
			seg.recs = append(seg.recs, rec)
		}
		return err
	})
	seg.torn = seg.torn || len(raw) == 0
	return seg
}

// decodeRecord parses record li of segment name. Record 0 is the Header,
// whose schema version must be this reader's. Later records dispatch on
// the JSON shape: cell records carry "result", replica records carry
// "out". Both kinds share recordVersion 1 — the discriminator is
// additive, so pre-replica checkpoints read unchanged.
func decodeRecord(name string, li int, body []byte) (any, error) {
	if li == 0 {
		var h Header
		if err := json.Unmarshal(body, &h); err != nil {
			return nil, fmt.Errorf("%w: segment %s header: %v", ErrCorrupt, name, err)
		}
		if h.Version != recordVersion {
			return nil, fmt.Errorf("%w: segment %s has version %d, this reader speaks %d",
				ErrStaleCheckpoint, name, h.Version, recordVersion)
		}
		return h, nil
	}
	var probe struct {
		Result *json.RawMessage `json:"result"`
		Out    *json.RawMessage `json:"out"`
	}
	err := json.Unmarshal(body, &probe)
	switch {
	case err != nil:
	case probe.Result != nil:
		var rec CellRecord
		if err = json.Unmarshal(body, &rec); err == nil {
			return rec, nil
		}
	case probe.Out != nil:
		var rec ReplicaRecord
		if err = json.Unmarshal(body, &rec); err == nil {
			return rec, nil
		}
	default:
		err = errors.New("neither a cell nor a replica record")
	}
	return nil, fmt.Errorf("%w: segment %s record %d: %v", ErrCorrupt, name, li, err)
}

// checkpoint is what the journal rules make of a checkpoint's segments,
// folded in journal order.
type checkpoint struct {
	// header is the first folded segment's; Version 0 until one is.
	header  Header
	records []CellRecord
	// replicas holds the journaled replica prefix of each cell that has
	// no cell record yet, in replica order. A cell record supersedes (and
	// drops) its cell's replica records on read-back.
	replicas map[int][]sweep.ReplicaOutcome
	// done names the segment holding each folded cell record.
	done  map[int]string
	tally tally
	// nextSeg and the torn tail of the final segment, if any, are the
	// strict reader's: the segment's name and the intact prefix to
	// rewrite it with (possibly empty — then the file is removed).
	nextSeg  int
	tornSeg  string
	tornKeep []byte
}

// fold applies one segment's records under the journal rules, in record
// order: every header names the first one's checkpoint
// (ErrStaleCheckpoint otherwise); no cell is journaled twice; a cell
// record's index equals its result's; and a cell's replica records run
// contiguous from replica 0, all before its cell record. A record that
// breaks a rule is ErrCorrupt. Past the records it returns seg.err, with
// damage wrapped as ErrCorrupt too. Damage is the one error that also
// wraps recordlog.ErrCorrupt, and the one after which the fold holds the
// segment's whole intact prefix, so a reader that tolerates it folds on.
func (cp *checkpoint) fold(name string, seg segment) error {
	for li, rec := range seg.recs {
		switch rec := rec.(type) {
		case Header:
			if cp.header.Version == 0 {
				cp.header = rec
			} else if !cp.header.matches(rec) {
				return fmt.Errorf("%w: segment %s header disagrees with earlier segments", ErrStaleCheckpoint, name)
			}
		case CellRecord:
			if rec.Index != rec.Result.Index {
				return fmt.Errorf("%w: segment %s record %d: index %d disagrees with result index %d",
					ErrCorrupt, name, li, rec.Index, rec.Result.Index)
			}
			if prev, dup := cp.done[rec.Index]; dup {
				return fmt.Errorf("%w: cell %d journaled in both %s and %s", ErrCorrupt, rec.Index, prev, name)
			}
			cp.done[rec.Index] = name
			cp.records = append(cp.records, rec)
			delete(cp.replicas, rec.Index)
			cp.tally.cell(rec.Result)
		case ReplicaRecord:
			if prev, done := cp.done[rec.CellIndex]; done {
				return fmt.Errorf("%w: replica record for cell %d in %s after its cell record in %s",
					ErrCorrupt, rec.CellIndex, name, prev)
			}
			if got := len(cp.replicas[rec.CellIndex]); rec.Rep != got {
				return fmt.Errorf("%w: cell %d replica %d journaled in %s but %d replica(s) precede it",
					ErrCorrupt, rec.CellIndex, rec.Rep, name, got)
			}
			cp.replicas[rec.CellIndex] = append(cp.replicas[rec.CellIndex], rec.Out)
			cp.tally.replica(rec.CellIndex, rec.Out)
		}
	}
	if errors.Is(seg.err, recordlog.ErrCorrupt) {
		return fmt.Errorf("%w: segment %s: %w", ErrCorrupt, name, seg.err)
	}
	return seg.err
}

// newCheckpoint returns an empty fold.
func newCheckpoint() *checkpoint {
	return &checkpoint{replicas: make(map[int][]sweep.ReplicaOutcome), done: make(map[int]string)}
}

// repair rewrites (or removes) a torn final segment so the checkpoint
// reads clean from now on. No-op for clean checkpoints.
func (cp *checkpoint) repair(fsys chaos.FS, dir string) error {
	if cp.tornSeg == "" {
		return nil
	}
	if len(cp.tornKeep) == 0 {
		if err := fsys.Remove(filepath.Join(dir, cp.tornSeg)); err != nil {
			return err
		}
		return fsys.SyncDir(dir)
	}
	return recordlog.Publish(fsys, dir, cp.tornSeg, cp.tornKeep)
}

// readCheckpoint folds every segment of dir under recordlog's torn-record
// rule: a torn tail is legal only in the final segment, whose intact
// prefix is kept and recorded for repair; damage anywhere else is
// ErrCorrupt. A record whose crc verifies was written intact, so a
// decode or rule failure on it is fatal even in the final segment.
func readCheckpoint(dir string) (*checkpoint, error) {
	nums, err := segments.List(nil, dir)
	if err != nil {
		return nil, err
	}
	if len(nums) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
	}
	cp := newCheckpoint()
	cp.nextSeg = nums[len(nums)-1] + 1
	for si, n := range nums {
		name := segments.Name(n)
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		seg := parseSegment(name, raw)
		if err := cp.fold(name, seg); err != nil {
			return nil, err
		}
		if seg.torn {
			if si < len(nums)-1 {
				return nil, fmt.Errorf("%w: segment %s has a torn tail but is not the final segment", ErrCorrupt, name)
			}
			cp.tornSeg, cp.tornKeep = name, raw[:seg.good]
		}
	}
	if cp.header.Version == 0 {
		if len(nums) == 1 && cp.tornSeg != "" && len(cp.tornKeep) == 0 {
			// The only segment tore before its header record survived: the
			// crash hit the very first publish, so nothing was ever durable.
			// That is an empty checkpoint, not corruption — the opener
			// sweeps the torn file and starts fresh.
			return nil, fmt.Errorf("%w: %s: %w", ErrNoCheckpoint, dir, errGenesisTorn)
		}
		return nil, fmt.Errorf("%w: no readable header", ErrCorrupt)
	}
	return cp, nil
}

// errGenesisTorn marks the no-checkpoint subcase where a torn first
// publish left a damaged segment file behind that must be swept before
// creating fresh.
var errGenesisTorn = errors.New("only segment torn before its header")

// ReadCheckpoint reads a checkpoint directory without opening it for
// writing: the header and every journaled cell, tolerating (but not
// repairing) a torn tail on the final segment. Merge and inspection
// tooling build on it.
func ReadCheckpoint(dir string) (Header, []CellRecord, error) {
	cp, err := readCheckpoint(dir)
	if err != nil {
		return Header{}, nil, err
	}
	return cp.header, cp.records, nil
}
