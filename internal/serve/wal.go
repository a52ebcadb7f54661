package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"doda/internal/chaos"
	"doda/internal/core"
	"doda/internal/recordlog"
)

// walVersion is the instance log schema version; readers reject others.
const walVersion = 1

const walDirPerm = 0o755

// generations names an instance directory's log files,
// wal-00000000.jsonl upward; the newest one is the live log.
var generations = recordlog.Series{Prefix: "wal-", Suffix: ".jsonl"}

// ErrWAL reports a wedged write-ahead log: an append failed mid-record,
// so further appends would bury valid records behind garbage. The
// instance worker recovers by rewriting the log as a fresh generation;
// until then admissions are refused with this error.
var ErrWAL = errors.New("serve: write-ahead log wedged, rewrite pending")

// walHeader is record 0 of every generation: the instance identity.
type walHeader struct {
	Version int            `json:"version"`
	Config  InstanceConfig `json:"config"`
}

// walState is record 1: the engine snapshot the generation starts from
// and the sequence number of the last batch folded into it.
type walState struct {
	AppliedSeq uint64           `json:"applied_seq"`
	State      core.EngineState `json:"state"`
}

// walIngest journals one accepted batch.
type walIngest struct {
	Seq uint64   `json:"seq"`
	Its [][2]int `json:"its"`
}

// wal is one instance's open write-ahead log. Calls are serialised by the
// owning instance's mutex.
type wal struct {
	fs  chaos.FS
	dir string

	gen int                 // current generation number
	log *recordlog.Appender // appends to the current generation
}

// broken reports a wedged log; see ErrWAL.
func (w *wal) broken() bool { return w.log.Stopped() }

// encodeGen frames a generation's records: header, state, ingests.
func encodeGen(cfg InstanceConfig, st walState, pending []walIngest) ([]byte, error) {
	recs := make([]any, 0, len(pending)+2)
	recs = append(recs, walHeader{Version: walVersion, Config: cfg}, st)
	for _, in := range pending {
		recs = append(recs, in)
	}
	var data []byte
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		data = recordlog.AppendFrame(data, b)
	}
	return data, nil
}

// publish atomically writes generation gen and switches appends to it,
// so a crash at any instant leaves either the old world or the complete
// new one. A fresh generation also clears a wedged log: the old tail's
// damage is left behind.
func (w *wal) publish(gen int, data []byte) error {
	name := generations.Name(gen)
	if err := recordlog.Publish(w.fs, w.dir, name, data); err != nil {
		return err
	}
	log, err := recordlog.Open(w.fs, filepath.Join(w.dir, name), int64(len(data)))
	if w.log != nil {
		w.log.Close()
	}
	w.gen, w.log = gen, log
	return err
}

// createWAL starts generation 0 for a freshly registered instance and
// opens it for appends.
func createWAL(fsys chaos.FS, dir string, cfg InstanceConfig, st core.EngineState) (*wal, error) {
	if err := os.MkdirAll(dir, walDirPerm); err != nil {
		return nil, err
	}
	gens, err := generations.List(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		return nil, fmt.Errorf("serve: %s already holds a write-ahead log", dir)
	}
	data, err := encodeGen(cfg, walState{State: st}, nil)
	if err != nil {
		return nil, err
	}
	w := &wal{fs: fsys, dir: dir}
	if err := w.publish(0, data); err != nil {
		return nil, err
	}
	return w, nil
}

// append journals one batch and makes it durable. On failure the log is
// wedged (ErrWAL) until rotate rewrites it: the failed write may have
// left a partial record at the tail, and appending after it would turn
// an unacknowledged torn tail into unrecoverable mid-log corruption.
func (w *wal) append(rec walIngest) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := w.log.Append(b, true); err != nil {
		return fmt.Errorf("%w: %w", ErrWAL, err)
	}
	return nil
}

// rotate publishes a fresh generation holding the current snapshot plus
// the journaled-but-unapplied batches, switches appends to it, and
// deletes older generations.
func (w *wal) rotate(cfg InstanceConfig, st walState, pending []walIngest) error {
	data, err := encodeGen(cfg, st, pending)
	if err != nil {
		return err
	}
	old := w.gen
	if err := w.publish(old+1, data); err != nil {
		return err
	}
	// The new generation is durable; older ones are now garbage. Removal
	// failures are harmless (recovery prefers the newest valid gen) but
	// surface through SyncDir if the directory itself is sick.
	gens, err := generations.List(w.fs, w.dir)
	if err != nil {
		return err
	}
	for _, n := range gens {
		if n <= old {
			w.fs.Remove(filepath.Join(w.dir, generations.Name(n)))
		}
	}
	return w.fs.SyncDir(w.dir)
}

func (w *wal) close() error { return w.log.Close() }

// errNoWAL reports an instance directory that holds no instance: either
// no generation file, or only generation 0 and it ends before its
// header and state records. Both mean the registration was never
// acknowledged (Register acks only once generation 0 is durable), so the
// directory may be swept. Nothing else earns that: a generation numbered
// 1 or higher proves an acknowledged registration.
var errNoWAL = errors.New("serve: no readable write-ahead log")

// errEndsEarly classifies a generation that ends, cleanly or torn,
// before its header and state records: a publish cut short. Recovery
// falls back past it. Corruption, a rejected record and I/O failures are
// not this class — the bytes on disk may hold acknowledged batches, so
// they abort recovery instead.
var errEndsEarly = errors.New("serve: generation ends before its header and state")

// recovered is the parsed durable state of one instance directory.
type recovered struct {
	cfg     InstanceConfig
	state   core.EngineState
	applied uint64
	tail    []walIngest
	gen     int
	size    int64 // length of the generation file's intact records
}

// recoverWAL reads an instance directory back: the newest generation
// with its header and state wins; a torn tail is dropped and the file
// repaired; generations newer than the winner (cut short mid-rotation)
// and older than it (superseded) are deleted. Returns the recovered
// state and an open log ready for appends.
func recoverWAL(fsys chaos.FS, dir string) (*wal, *recovered, error) {
	gens, err := generations.List(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if len(gens) == 0 {
		return nil, nil, fmt.Errorf("%w: %s holds no generation", errNoWAL, dir)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		rec, _, err := parseGen(fsys, dir, gens[i])
		if errors.Is(err, errEndsEarly) {
			if len(gens) == 1 && gens[0] == 0 {
				return nil, nil, fmt.Errorf("%w: %w", errNoWAL, err)
			}
			// Cut short mid-rotation: fall back to the predecessor, which
			// rotation deletes only after its successor is durable.
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		// This generation wins; every other generation file is garbage.
		for k, n := range gens {
			if k != i {
				fsys.Remove(filepath.Join(dir, generations.Name(n)))
			}
		}
		if err := fsys.SyncDir(dir); err != nil {
			return nil, nil, err
		}
		log, err := recordlog.Open(fsys, filepath.Join(dir, generations.Name(rec.gen)), rec.size)
		if err != nil {
			return nil, nil, err
		}
		return &wal{fs: fsys, dir: dir, gen: rec.gen, log: log}, rec, nil
	}
	return nil, nil, fmt.Errorf("serve: %s: every generation ends before its header and state", dir)
}

// parseGen reads generation gen. A torn tail is dropped and the file
// republished without it (repaired=true), so future appends land after
// intact bytes. A generation without its header and state records is
// errEndsEarly; corruption, a rejected record and I/O failures return as
// they are.
func parseGen(fsys chaos.FS, dir string, gen int) (*recovered, bool, error) {
	name := generations.Name(gen)
	raw, err := fsys.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, false, err
	}
	rec := &recovered{gen: gen}
	n := 0
	good, torn, err := recordlog.Replay(bytes.NewReader(raw), 0, func(li int, body []byte) error {
		n++
		return rec.readRecord(li, body)
	})
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", name, err)
	}
	if n < 2 {
		return nil, false, fmt.Errorf("%w: %s", errEndsEarly, name)
	}
	rec.size = good
	if !torn {
		return rec, false, nil
	}
	if err := recordlog.Publish(fsys, dir, name, raw[:good]); err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// readRecord parses one record line by position and shape.
func (r *recovered) readRecord(li int, body []byte) error {
	switch li {
	case 0:
		var h walHeader
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("serve: wal header: %w", err)
		}
		if h.Version != walVersion {
			return fmt.Errorf("serve: wal version %d, this reader speaks %d", h.Version, walVersion)
		}
		r.cfg = h.Config
		return nil
	case 1:
		var s walState
		if err := json.Unmarshal(body, &s); err != nil {
			return fmt.Errorf("serve: wal state: %w", err)
		}
		r.state = s.State
		r.applied = s.AppliedSeq
		return nil
	default:
		var in walIngest
		if err := json.Unmarshal(body, &in); err != nil {
			return fmt.Errorf("serve: wal ingest record %d: %w", li, err)
		}
		if in.Seq == 0 {
			return fmt.Errorf("serve: wal ingest record %d: zero sequence", li)
		}
		if want := r.lastSeq() + 1; in.Seq != want {
			return fmt.Errorf("serve: wal ingest record %d: sequence %d, want %d", li, in.Seq, want)
		}
		r.tail = append(r.tail, in)
		return nil
	}
}

// lastSeq is the highest journaled sequence in the recovered state.
func (r *recovered) lastSeq() uint64 {
	if len(r.tail) > 0 {
		return r.tail[len(r.tail)-1].Seq
	}
	return r.applied
}
