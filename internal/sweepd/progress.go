package sweepd

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"

	"doda/internal/chaos"
	"doda/internal/recordlog"
	"doda/internal/sweep"
)

// progressName is the advisory progress record's file name inside a
// checkpoint directory; progressPrefix matches its tmp files so crashed
// writers' leftovers are swept with the segment tmps.
const (
	progressName   = "progress.json"
	progressPrefix = "progress"
)

// Progress is the periodically-flushed observability record of one
// running shard. It is purely advisory: the file is rewritten atomically
// but never fsynced, readers tolerate its absence or corruption, and
// nothing in resume or merge consults it — the journal segments alone
// carry the durable state. Counters cover the whole shard (restored +
// fresh), so a resumed run reports from where the crash left off.
type Progress struct {
	// CellsDone / CellsTotal count this shard's completed and assigned
	// cells; FreshCells is how many of CellsDone this process ran itself.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	FreshCells int `json:"fresh_cells"`
	// ReplicasDone counts the completed replicas of cells still in
	// flight: every fresh one this process ran, whether or not it was
	// journaled, plus a resumed cell's journaled prefix.
	ReplicasDone int `json:"replicas_done,omitempty"`
	// Interactions and Transmissions total everything simulated so far,
	// including in-flight cells' completed replicas.
	Interactions  float64 `json:"interactions"`
	Transmissions int     `json:"transmissions"`
	// ElapsedMs is this process's wall time since its run started —
	// paired with FreshCells it yields a live cells/sec estimate.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Done marks the shard complete; the final flush sets it.
	Done bool `json:"done,omitempty"`
}

// tally keeps a shard's progress counters, fed one replica or cell at a
// time. A cell's record replaces the partial sums its replicas added, so
// in-flight work counts exactly once.
type tally struct {
	cellsDone, replicasDone int
	interactions            float64
	transmissions           int
	inflight                map[int]partial
}

// partial is the replica sums of one cell with no record yet.
type partial struct {
	replicas      int
	interactions  float64
	transmissions int
}

func (t *tally) replica(cell int, out sweep.ReplicaOutcome) {
	if t.inflight == nil {
		t.inflight = make(map[int]partial)
	}
	p := t.inflight[cell]
	p.replicas++
	p.interactions += out.Interactions
	p.transmissions += out.Transmissions
	t.inflight[cell] = p
	t.replicasDone++
	t.interactions += out.Interactions
	t.transmissions += out.Transmissions
}

func (t *tally) cell(r sweep.CellResult) {
	p := t.inflight[r.Index]
	delete(t.inflight, r.Index)
	m := r.Interactions
	t.cellsDone++
	t.replicasDone -= p.replicas
	t.interactions += m.Mean*float64(m.Count) - p.interactions
	t.transmissions += r.Transmissions - p.transmissions
}

// writeProgress atomically replaces dir's progress record: crc-framed
// like a segment line, written to a unique tmp and renamed. No fsync —
// losing the file costs a dashboard update, not data. Errors are
// returned for the caller to ignore or count; a full disk must not be
// able to kill a sweep via its progress ticker.
func writeProgress(fsys chaos.FS, dir string, p Progress) error {
	body, err := json.Marshal(p)
	if err != nil {
		return err
	}
	f, err := fsys.CreateTemp(dir, progressPrefix+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(recordlog.AppendFrame(nil, body)); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, progressName)); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// ReadProgress reads dir's advisory progress record. A missing, torn or
// otherwise unreadable file reads as (nil, nil): progress is best-effort
// and a reader must never fail a dashboard over it.
func ReadProgress(dir string) (*Progress, error) {
	f, err := os.Open(filepath.Join(dir, progressName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var p *Progress
	_, torn, err := recordlog.Replay(f, 0, func(i int, body []byte) error {
		if i > 0 {
			return errors.New("more than one record")
		}
		p = new(Progress)
		return json.Unmarshal(body, p)
	})
	if err != nil || torn {
		return nil, nil
	}
	return p, nil
}
