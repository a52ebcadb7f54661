// Package sweepd is the checkpointed, resumable sweep service layered
// on internal/sweep: long grids journal every completed cell and
// survive crashes, restarts and multi-process sharding without changing
// a single output byte.
//
// # Checkpoint format
//
// A checkpoint is a directory of immutable JSONL segments named
// seg-00000000.jsonl, seg-00000001.jsonl, … (zero-padded so
// lexicographic order is numeric order). Every line is one
// internal/recordlog record: 8 lowercase hex digits of the CRC-32C
// (Castagnoli) of the JSON body, one space, the body, '\n'. The first
// record of every segment is the Header — schema version, grid
// fingerprint, shard index/count, and the grid itself — and every
// further record is one CellRecord: the cell's result exactly as the
// streaming JSONL output encodes it, plus the raw Welford duration
// accumulator the rounded metric cannot reconstruct (what makes resumed
// and merged fleet totals fold bit-for-bit).
//
// Segments are published atomically (recordlog.Publish): written to a
// .tmp file, fsynced, renamed to the final name, directory fsynced. A
// crash can therefore never leave a half-written segment under a final
// name; the worst case is a torn tail on the final segment (power cut on
// a non-atomic filesystem), which Open drops and durably repairs,
// costing at most the cells of that segment. recordlog's torn-record
// rule decides what counts as torn: damage with no byte after it in the
// final segment (an empty segment file counts, since every published
// segment starts with its header). Corruption anywhere else — a bad crc
// mid-stream, a header mismatch between segments, a duplicate cell — is
// fatal (ErrCorrupt): repairing it away would silently destroy journaled
// results.
//
// ReadCheckpoint, Open and the read-only Watcher share one segment
// parse, one fold of the journal rules in record order and one tally of
// the progress counters; the Watcher differs only in tolerating damage
// anywhere, which a live writer's directory can show mid-repair.
//
// # Identity and staleness
//
// The Header's fingerprint (sweep.Grid.Fingerprint, a versioned sha256
// of the canonical grid JSON) is the cell-identity contract: a journal
// written for one grid is rejected by any other (ErrStaleCheckpoint),
// so a stale checkpoint can never smuggle results into a changed
// sweep. LoadFleet is the one cross-checkpoint validation path —
// `dodasweep merge` and `dodasweep analyze` both read fleets through
// it, so a stale or foreign journal fails identically in both.
//
// # Resume and merge semantics
//
// Run journals each completed cell before emitting it, skips journaled
// cells on resume, and re-emits the full stream in cell-index order —
// byte-identical to an uninterrupted run, provable from the per-cell
// deterministic seed contract (a cell's result depends only on the grid
// and its index, never on which process ran it or when). ShardOf
// partitions the cell index space disjointly with a stable hash, so m
// independent processes each journaling their own shard cover the grid
// exactly once, and Merge stitches the m checkpoints back into the
// single-process byte stream plus exact fleet totals.
package sweepd
