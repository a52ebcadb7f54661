package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"doda/internal/chaos"
	"doda/internal/recordlog"
)

// coordLogName is the coordinator's append-only event log inside the
// fleet directory: recordlog records, under recordlog's torn-record
// rule — only the final record may be damaged, and only when nothing
// follows it.
const coordLogName = "coord.log"

// coordRecord kinds.
const (
	recHeader   = "header"
	recGrant    = "grant"
	recComplete = "complete"
	recRequeue  = "requeue"
	recFail     = "fail"
)

// coordLogVersion guards the log format.
const coordLogVersion = 1

// coordRecord is one event in the coordinator log. The first record is
// always a header carrying the fleet's identity; every later record
// moves one shard. Replay order is authoritative: a later grant of the
// same shard supersedes an earlier one, so losing a requeue record (they
// are written best-effort from the expiry loop) cannot corrupt the
// table — the superseding grant re-leases the shard either way.
type coordRecord struct {
	Kind        string `json:"kind"`
	Version     int    `json:"version,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	ShardCount  int    `json:"shard_count,omitempty"`
	// Shard has no omitempty: shard 0 is a real value.
	Shard   int    `json:"shard"`
	Worker  string `json:"worker,omitempty"`
	LeaseID string `json:"lease_id,omitempty"`
	Seq     int    `json:"seq,omitempty"`
	Dir     string `json:"dir,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// coordLog is the open append handle. Grants and completions are
// fsynced before the coordinator commits them in memory (and before the
// worker sees an acknowledgement); requeues are appended without fsync.
type coordLog struct {
	*recordlog.Appender
}

// createCoordLog starts a fresh log, refusing to clobber an existing
// one — a fleet directory with a coord.log is a crashed fleet, and
// overwriting it silently would destroy the resume evidence.
func createCoordLog(fsys chaos.FS, dir string, header coordRecord) (*coordLog, error) {
	body, err := json.Marshal(header)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, coordLogName)
	a, err := recordlog.Create(fsys, path, body)
	if errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("fleet: %s exists — a previous coordinator ran here; use resume or a fresh directory", path)
	}
	if err != nil {
		return nil, err
	}
	return &coordLog{a}, nil
}

// maxCoordRecord bounds one journal line. Real records are a few hundred
// bytes of JSON; a "line" longer than this is corruption, not data, and
// refusing it keeps replay memory O(1) instead of O(line).
const maxCoordRecord = 1 << 20

// openCoordLog streams an existing log for resume: apply is called once
// per intact record, in order, so replay memory stays bounded by one
// record no matter how large the log grew (a long fleet appends a grant
// and a completion per lease, plus a requeue per expiry — multi-MB logs
// are routine). The file is reopened for appending, first cutting away
// a torn final record. Corruption before the final record is fatal, as
// is an error from apply.
func openCoordLog(fsys chaos.FS, dir string, apply func(i int, rec coordRecord) error) (*coordLog, error) {
	path := filepath.Join(dir, coordLogName)
	rf, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("fleet: no %s in %s — nothing to resume", coordLogName, dir)
	}
	if err != nil {
		return nil, err
	}
	good, _, err := recordlog.Replay(rf, maxCoordRecord, func(i int, body []byte) error {
		var rec coordRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		return apply(i, rec)
	})
	rf.Close()
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", path, err)
	}
	a, err := recordlog.Open(fsys, path, good)
	if err != nil {
		return nil, err
	}
	return &coordLog{a}, nil
}

// append journals one record, fsynced when sync is set. An error means
// the event is not durable and must not be acknowledged. A failed append
// stops the log; the next append first cuts the file back to its last
// intact record, so no record ever lands behind a partial one.
func (l *coordLog) append(rec coordRecord, sync bool) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if l.Stopped() {
		if err := l.Repair(); err != nil {
			return err
		}
	}
	return l.Append(body, sync)
}
