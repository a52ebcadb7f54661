package sweepd

// Codec-level tests for the checkpoint journal: record round-trips,
// truncated-tail recovery, stale-checkpoint rejection, and fuzzers over
// both the encode→decode path and arbitrary hostile input.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"doda/internal/recordlog"
	"doda/internal/stats"
	"doda/internal/sweep"
)

// testGrid is a small valid grid for journal identity checks.
func testGrid(seed uint64) sweep.Grid {
	return sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}, {Name: "zipf", Params: map[string]string{"alpha": "1"}}},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{8, 10},
		Replicas:   2,
		Seed:       seed,
	}
}

// fakeResult fabricates a plausible cell result for codec tests (no sweep
// needs to run to test the journal).
func fakeResult(t *testing.T, grid sweep.Grid, index int, durs ...float64) sweep.CellResult {
	t.Helper()
	cells, err := grid.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if index >= len(cells) {
		t.Fatalf("index %d outside %d-cell test grid", index, len(cells))
	}
	r := sweep.CellResult{Cell: cells[index], Replicas: len(durs)}
	var w stats.Welford
	for _, d := range durs {
		w.Add(d)
		r.Terminated++
		r.Transmissions += cells[index].N - 1
	}
	r.SetDurationAcc(w)
	return r
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	grid := testGrid(7)
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []sweep.CellResult{
		fakeResult(t, grid, 0, 11, 13),
		fakeResult(t, grid, 3, 101.5),
		fakeResult(t, grid, 5),
	}
	// Two records in one segment, one in another: segments may batch.
	j.Append(want[0])
	j.Append(want[1])
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Append(want[2])
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	h, recs, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := grid.Fingerprint()
	if h.Fingerprint != fp || h.ShardCount != 1 || h.Version != recordVersion {
		t.Errorf("header = %+v", h)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		got := rec.Restore()
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got, want[i])
		}
		gw, ww := got.DurationAcc(), want[i].DurationAcc()
		if gw.State() != ww.State() {
			t.Errorf("record %d accumulator: got %+v, want %+v", i, gw.State(), ww.State())
		}
	}

	// Open resumes with the same records and appends past them.
	j2, recs2, err := Open(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(want) {
		t.Fatalf("resume saw %d records, want %d", len(recs2), len(want))
	}
	extra := fakeResult(t, grid, 6, 77)
	j2.Append(extra)
	if err := j2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, recs3, err := ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != len(want)+1 || recs3[len(recs3)-1].Index != 6 {
		t.Fatalf("after resume-append: %d records", len(recs3))
	}
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	nums, err := segments.List(nil, dir)
	if err != nil || len(nums) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return filepath.Join(dir, segments.Name(nums[len(nums)-1]))
}

// TestTruncatedTailRecovery kills bytes off the final record — a torn
// write — and checks the valid prefix survives, the torn record is
// dropped (not fatal), and Open durably repairs the file.
func TestTruncatedTailRecovery(t *testing.T) {
	grid := testGrid(9)
	for _, cut := range []int{1, 5, 20} {
		dir := t.TempDir()
		j, err := Create(dir, grid, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		// One multi-record segment, so the tail drop must keep the
		// records before the torn one.
		j.Append(fakeResult(t, grid, 0, 5))
		j.Append(fakeResult(t, grid, 1, 6))
		j.Append(fakeResult(t, grid, 2, 7))
		if err := j.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		seg := lastSegment(t, dir)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		_, recs, err := ReadCheckpoint(dir)
		if err != nil {
			t.Fatalf("cut=%d: truncated tail should recover, got %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut=%d: got %d records, want 2 (torn third dropped)", cut, len(recs))
		}

		// Open repairs: the segment now ends at the last valid record,
		// and a subsequent plain read sees no corruption.
		if _, _, err := Open(dir, grid, 0, 1); err != nil {
			t.Fatalf("cut=%d: open-with-repair: %v", cut, err)
		}
		repaired, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(repaired, []byte("\n")) {
			t.Errorf("cut=%d: repaired segment not newline-terminated", cut)
		}
		if lines := bytes.Count(repaired, []byte("\n")); lines != 3 { // header + 2 surviving records
			t.Errorf("cut=%d: repaired segment has %d lines, want 3", cut, lines)
		}
		if _, recs, err = ReadCheckpoint(dir); err != nil || len(recs) != 2 {
			t.Fatalf("cut=%d: post-repair read: %d records, %v", cut, len(recs), err)
		}
	}
}

// TestTruncatedWholeFinalSegment drops a final segment cut down to
// nothing readable, including its header.
func TestTruncatedWholeFinalSegment(t *testing.T) {
	grid := testGrid(10)
	dir := t.TempDir()
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 1, 4))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 2, 9))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	if err := os.WriteFile(seg, []byte("garbage-with-no-newline"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadCheckpoint(dir)
	if err != nil || len(recs) != 1 {
		t.Fatalf("read: %d records, %v (want 1, recovered)", len(recs), err)
	}
	if _, _, err := Open(dir, grid, 0, 1); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := os.Stat(seg); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unreadable final segment should be removed by repair, stat: %v", err)
	}
}

// TestEmptySegmentIsTorn covers a segment file that lost every byte, as
// a torn rename can leave it: a lone one is a first publish that never
// became durable, so Open starts fresh; a final one after intact
// segments is a torn tail, which Open removes.
func TestEmptySegmentIsTorn(t *testing.T) {
	grid := testGrid(10)
	dir := t.TempDir()
	seg := filepath.Join(dir, segments.Name(0))
	if err := os.WriteFile(seg, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := Open(dir, grid, 0, 1); err != nil || len(recs) != 0 {
		t.Fatalf("open over a lone empty segment: %d records, %v (want a fresh start)", len(recs), err)
	}

	dir = t.TempDir()
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 1, 4))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg = filepath.Join(dir, segments.Name(j.nextSeg))
	if err := os.WriteFile(seg, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := Open(dir, grid, 0, 1); err != nil || len(recs) != 1 {
		t.Fatalf("open: %d records, %v (want 1)", len(recs), err)
	}
	if _, err := os.Stat(seg); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty final segment should be removed by repair, stat: %v", err)
	}
}

// TestCorruptMiddleIsFatal flips a byte in a non-final segment: that is
// real corruption, not a torn tail, and must not be silently dropped.
func TestCorruptMiddleIsFatal(t *testing.T) {
	grid := testGrid(11)
	dir := t.TempDir()
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 0, 2))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := lastSegment(t, dir)
	j.Append(fakeResult(t, grid, 1, 3))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-stream corruption: got %v, want ErrCorrupt", err)
	}
}

// TestStaleCheckpointRejected covers the grid-fingerprint and
// shard-layout mismatch paths: a checkpoint for one configuration must
// never feed results into another.
func TestStaleCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testGrid(7), 0, 1); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name       string
		grid       sweep.Grid
		shardIndex int
		shardCount int
	}{
		{name: "different seed", grid: testGrid(8), shardCount: 1},
		{name: "different sizes", grid: func() sweep.Grid { g := testGrid(7); g.Sizes = []int{8}; return g }(), shardCount: 1},
		{name: "different replicas", grid: func() sweep.Grid { g := testGrid(7); g.Replicas = 3; return g }(), shardCount: 1},
		{name: "different shard layout", grid: testGrid(7), shardIndex: 1, shardCount: 3},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Open(dir, tt.grid, tt.shardIndex, tt.shardCount); !errors.Is(err, ErrStaleCheckpoint) {
				t.Errorf("got %v, want ErrStaleCheckpoint", err)
			}
		})
	}
	// The matching identity still opens.
	if _, _, err := Open(dir, testGrid(7), 0, 1); err != nil {
		t.Errorf("matching grid rejected: %v", err)
	}
}

func TestCreateRefusesExistingCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testGrid(7), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, testGrid(7), 0, 1); !errors.Is(err, ErrCheckpointExists) {
		t.Errorf("got %v, want ErrCheckpointExists", err)
	}
}

func TestOpenEmptyDirStartsFresh(t *testing.T) {
	// A run SIGKILLed before its first checkpoint leaves an empty (or
	// missing) directory; resume must start from zero, not fail.
	for _, make := range []bool{true, false} {
		dir := filepath.Join(t.TempDir(), "ck")
		if make {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		j, recs, err := Open(dir, testGrid(7), 0, 1)
		if err != nil || len(recs) != 0 || j == nil {
			t.Fatalf("mkdir=%v: open empty: %d recs, %v", make, len(recs), err)
		}
	}
}

func TestLeftoverTmpFilesIgnoredAndCleaned(t *testing.T) {
	dir := t.TempDir()
	grid := testGrid(7)
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 0, 8))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-publish leaves a tmp file.
	tmp := filepath.Join(dir, segments.Name(99)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := ReadCheckpoint(dir); err != nil || len(recs) != 1 {
		t.Fatalf("tmp file broke reading: %d recs, %v", len(recs), err)
	}
	if _, _, err := Open(dir, grid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open should clean leftover tmp files, stat: %v", err)
	}
}

// FuzzCheckpointRoundTrip fuzzes the record codec: any cell record must
// encode to a line that decodes back to the identical record, moments
// included bit-for-bit.
func FuzzCheckpointRoundTrip(f *testing.F) {
	f.Add(0, 3, 2, 14, 10.0, 20.0, 15.5, 12.25)
	f.Add(7, 1, 0, 0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1<<30, 1000000, 999999, 1<<40, 1e-300, 1e300, -1e12, 3.141592653589793)
	f.Fuzz(func(t *testing.T, index, replicas, terminated, transmissions int, mn, mx, mean, m2 float64) {
		rec := CellRecord{
			Index: index,
			Result: sweep.CellResult{
				Cell: sweep.Cell{
					Index:      index,
					Scenario:   sweep.ScenarioRef{Name: "uniform"},
					Algorithm:  "gathering",
					N:          8,
					Seed:       uint64(index) * 0x9e3779b97f4a7c15,
					Provenance: "full",
				},
				Replicas:      replicas,
				Terminated:    terminated,
				Transmissions: transmissions,
			},
			DurAcc: stats.WelfordState{N: terminated, Mean: mean, M2: m2, Min: mn, Max: mx},
		}
		// NaN cannot ride JSON; the journal never carries NaNs (Welford
		// moments are finite for any real sample).
		if mean != mean || m2 != m2 || mn != mn || mx != mx {
			t.Skip("NaN moments are unrepresentable by design")
		}
		body, err := json.Marshal(rec)
		if err != nil {
			t.Skip("unmarshalable fuzz value (e.g. ±Inf)")
		}
		line := recordlog.AppendFrame(nil, body)
		got, err := recordlog.Decode(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		var back CellRecord
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip changed record:\n got %+v\nwant %+v", back, rec)
		}
		restored := back.Restore()
		w := restored.DurationAcc()
		if w.State() != rec.DurAcc {
			t.Fatalf("accumulator round trip: got %+v, want %+v", w.State(), rec.DurAcc)
		}
	})
}

// TestConcurrentWriterDetected: a second live writer on the same
// checkpoint directory must fail loudly at the O_EXCL tmp file instead
// of silently corrupting segments (crashed writers' leftover tmps are
// cleaned by Create/Open, so an existing tmp means a live process).
func TestConcurrentWriterDetected(t *testing.T) {
	dir := t.TempDir()
	grid := testGrid(7)
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the other process mid-write of the segment j will publish
	// next.
	tmp := filepath.Join(dir, segments.Name(1)+".tmp")
	if err := os.WriteFile(tmp, []byte("other writer"), 0o644); err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 0, 3))
	if err := j.Checkpoint(); err == nil || !strings.Contains(err.Error(), "another live process") {
		t.Fatalf("Checkpoint over a live tmp file: got %v, want loud concurrent-writer error", err)
	}
	if raw, err := os.ReadFile(tmp); err != nil || string(raw) != "other writer" {
		t.Errorf("the other writer's tmp file was clobbered: %q, %v", raw, err)
	}
}

// TestSemanticCorruptionInFinalSegmentIsFatal: a crc-valid record that
// fails semantically (here: a duplicate cell index — the signature of
// mixed checkpoints) was written intact, so even in the final segment it
// must be ErrCorrupt, never "repaired" away as a torn tail.
func TestSemanticCorruptionInFinalSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	grid := testGrid(7)
	j, err := Create(dir, grid, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(fakeResult(t, grid, 2, 5))
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Craft a final segment whose record duplicates cell 2: valid crc,
	// valid JSON, semantically impossible from a single writer.
	hb, err := json.Marshal(j.header)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(newCellRecord(fakeResult(t, grid, 2, 6)))
	if err != nil {
		t.Fatal(err)
	}
	seg := recordlog.AppendFrame(recordlog.AppendFrame(nil, hb), rb)
	if err := os.WriteFile(filepath.Join(dir, segments.Name(2)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("duplicate cell in final segment: got %v, want ErrCorrupt", err)
	}
	if _, _, err := Open(dir, grid, 0, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open must not repair semantic corruption away: got %v", err)
	}
	// The crafted segment must still be on disk (evidence preserved).
	if _, err := os.Stat(filepath.Join(dir, segments.Name(2))); err != nil {
		t.Errorf("evidence segment removed: %v", err)
	}
}

// FuzzCheckpointReaders is the differential check of the two checkpoint
// readers. The script is read three bytes at a time as crc-intact
// records — a header (the checkpoint's own, another shard's, a future
// version's, or one that does not decode), a cell record (its index and
// its result's index may disagree) or a replica record — or as a break
// to the next of at most four segments; tear > 0 then cuts bytes off the
// last segment. Whatever ReadCheckpoint accepts, the Watcher must accept
// with the counts the surviving records imply, cold and from its cache;
// whatever it rejects as ErrCorrupt, ErrStaleCheckpoint or
// ErrNoCheckpoint, the Watcher must reject with the same sentinel.
func FuzzCheckpointReaders(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0}, uint16(0))                   // a replica record after its cell's record
	f.Add([]byte{0, 0, 0, 1, 5, 129}, uint16(0))                          // cell record index 5, result index 3
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 0, 0, 3, 0, 1, 1, 0}, uint16(0)) // segment 1's header does not decode
	f.Add([]byte{0, 0, 0, 2, 1, 4, 2, 1, 1, 3, 0, 0, 0, 0, 0, 1, 1, 3, 2, 2, 0}, uint16(5))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 0, 0, 1, 0}, uint16(0))
	f.Add([]byte{0, 2, 0}, uint16(0))
	f.Add([]byte{0, 0, 0, 2, 4, 1}, uint16(0))
	f.Add([]byte{0, 0, 0}, uint16(3))
	grid := testGrid(7)
	base, err := headerFor(grid, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	other, err := headerFor(grid, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	future := base
	future.Version = recordVersion + 1
	f.Fuzz(func(t *testing.T, script []byte, tear uint16) {
		type line struct {
			rec   any // CellRecord, ReplicaRecord, or nil for a header
			frame []byte
		}
		segs := [][]line{nil}
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			last := &segs[len(segs)-1]
			var (
				rec  any
				body []byte
				err  error
			)
			switch op % 4 {
			case 0:
				switch a % 4 {
				case 0:
					body, err = json.Marshal(base)
				case 1:
					body, err = json.Marshal(other)
				case 2:
					body, err = json.Marshal(future)
				default:
					body = []byte(`{"version":1,"grid":"not a grid"}`)
				}
			case 1:
				idx, ridx := int(a%6), int(a%6)
				if b >= 128 {
					ridx = int(b % 6)
				}
				c := CellRecord{Index: idx, Result: sweep.CellResult{
					Cell:          sweep.Cell{Index: ridx},
					Transmissions: int(b % 11),
					Interactions:  sweep.Metric{Count: 1 + int(a%3), Mean: float64(b % 5)},
				}}
				rec = c
				body, err = json.Marshal(c)
			case 2:
				r := ReplicaRecord{CellIndex: int(a % 6), Rep: int(b % 3),
					Out: sweep.ReplicaOutcome{Interactions: float64(a % 5), Transmissions: int(b % 7)}}
				rec = r
				body, err = json.Marshal(r)
			default:
				if len(*last) > 0 && len(segs) < 4 {
					segs = append(segs, nil)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			*last = append(*last, line{rec: rec, frame: recordlog.AppendFrame(nil, body)})
		}
		if len(segs[len(segs)-1]) == 0 {
			return
		}

		// Write the segments, tearing the last, and keep the records whose
		// whole line survives.
		dir := t.TempDir()
		var kept []any
		for si, seg := range segs {
			var raw []byte
			for _, l := range seg {
				raw = append(raw, l.frame...)
			}
			keep := len(raw)
			if si == len(segs)-1 && tear > 0 {
				keep -= 1 + int(tear)%len(raw)
			}
			end := 0
			for _, l := range seg {
				if end += len(l.frame); end <= keep && l.rec != nil {
					kept = append(kept, l.rec)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, segments.Name(si)), raw[:keep], 0o644); err != nil {
				t.Fatal(err)
			}
		}

		// The counts the surviving records imply, when the journal is
		// valid. Every value is a small integer, so sums are exact in any
		// order.
		type counts struct {
			cells, replicas int
			interactions    float64
			transmissions   int
		}
		var want counts
		inflight := make(map[int][]sweep.ReplicaOutcome)
		for _, rec := range kept {
			switch rec := rec.(type) {
			case CellRecord:
				m := rec.Result.Interactions
				want.cells++
				want.interactions += m.Mean * float64(m.Count)
				want.transmissions += rec.Result.Transmissions
				delete(inflight, rec.Index)
			case ReplicaRecord:
				inflight[rec.CellIndex] = append(inflight[rec.CellIndex], rec.Out)
			}
		}
		for _, outs := range inflight {
			for _, o := range outs {
				want.replicas++
				want.interactions += o.Interactions
				want.transmissions += o.Transmissions
			}
		}

		_, recs, rerr := ReadCheckpoint(dir)
		w := NewWatcher(dir)
		for _, poll := range []string{"cold", "cached"} {
			snap, werr := w.Snapshot()
			if rerr != nil {
				for _, sentinel := range []error{ErrCorrupt, ErrStaleCheckpoint, ErrNoCheckpoint} {
					if errors.Is(rerr, sentinel) && !errors.Is(werr, sentinel) {
						t.Fatalf("%s watcher: ReadCheckpoint rejects with %v, Watcher returns %v", poll, rerr, werr)
					}
				}
				continue
			}
			if werr != nil {
				t.Fatalf("%s watcher: ReadCheckpoint accepts %d cells, Watcher rejects: %v", poll, len(recs), werr)
			}
			if len(recs) != want.cells {
				t.Fatalf("ReadCheckpoint returned %d cells, the surviving records hold %d", len(recs), want.cells)
			}
			got := counts{snap.CellsDone, snap.ReplicasDone, snap.Interactions, snap.Transmissions}
			if got != want {
				t.Fatalf("%s watcher counts %+v, the surviving records imply %+v", poll, got, want)
			}
		}
	})
}
