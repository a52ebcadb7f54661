package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"doda/internal/chaos"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// CoordinatorOptions tunes a fleet coordinator.
type CoordinatorOptions struct {
	// ShardCount is the number of shard leases the grid is split into
	// (each worker runs one shard at a time).
	ShardCount int
	// Dir is the fleet's root directory; shard i checkpoints into
	// Dir/shard-<i>, and the coordinator's own event log is
	// Dir/coord.log.
	Dir string
	// LeaseTTL is how long a lease survives without a heartbeat before
	// its shard is requeued (default 30s). It must comfortably exceed
	// the wall time of the slowest cell — a worker only notices a
	// revocation at a checkpoint boundary.
	LeaseTTL time.Duration
	// Resume rebuilds the partition table of a crashed coordinator from
	// Dir/coord.log and the shards' own checkpoints instead of starting
	// fresh. Grants whose workers survived keep their lease IDs (with a
	// fresh TTL), so running workers reconnect without losing work.
	Resume bool
	// MaxShardRetries permanently fails a shard once it has been requeued
	// this many times (lease expiries and releases both count): a shard
	// that keeps killing its workers stops being handed out, and Wait
	// reports the fleet wedged instead of spinning forever. 0 = unlimited.
	MaxShardRetries int
	// Logf, when non-nil, receives coordinator lifecycle lines (resume
	// summary, shards recovered from checkpoints). Printf semantics.
	Logf func(format string, args ...any)
}

// shard lease states.
const (
	statePending = "pending"
	stateLeased  = "leased"
	stateDone    = "done"
	stateFailed  = "failed"
)

// shardState is the coordinator's record of one shard.
type shardState struct {
	state    string
	worker   string
	leaseID  string
	expires  time.Time
	lastBeat time.Time
	retries  int
	dir      string
}

// Coordinator owns the shard partition table of one grid and serves the
// lease protocol. Create with NewCoordinator, then Start/Wait/Close.
type Coordinator struct {
	grid        sweep.Grid
	fingerprint string
	opt         CoordinatorOptions

	mu       sync.Mutex
	shards   []*shardState
	byLease  map[string]int
	leaseSeq int
	log      *coordLog
	doneOnce sync.Once
	doneCh   chan struct{}

	srv       *http.Server
	lis       net.Listener
	stopHB    chan struct{}
	closeOnce sync.Once
	logf      func(format string, args ...any)
}

// NewCoordinator validates the grid and builds the partition table.
func NewCoordinator(grid sweep.Grid, opt CoordinatorOptions) (*Coordinator, error) {
	return newCoordinator(grid, opt, chaos.Disk)
}

// newCoordinator is NewCoordinator journaling coord.log through fsys.
func newCoordinator(grid sweep.Grid, opt CoordinatorOptions, fsys chaos.FS) (*Coordinator, error) {
	if opt.ShardCount < 1 {
		return nil, fmt.Errorf("fleet: shard count %d < 1", opt.ShardCount)
	}
	if opt.Dir == "" {
		return nil, fmt.Errorf("fleet: empty fleet directory")
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	fp, err := grid.Fingerprint()
	if err != nil {
		return nil, err
	}
	if _, err := grid.Cells(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		grid:        grid,
		fingerprint: fp,
		opt:         opt,
		shards:      make([]*shardState, opt.ShardCount),
		byLease:     make(map[string]int),
		doneCh:      make(chan struct{}),
		stopHB:      make(chan struct{}),
		logf:        opt.Logf,
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	for i := range c.shards {
		c.shards[i] = &shardState{
			state: statePending,
			dir:   filepath.Join(opt.Dir, fmt.Sprintf("shard-%03d", i)),
		}
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	if opt.Resume {
		if err := c.resume(fsys); err != nil {
			return nil, err
		}
	} else {
		log, err := createCoordLog(fsys, opt.Dir, coordRecord{
			Kind:        recHeader,
			Version:     coordLogVersion,
			Fingerprint: fp,
			ShardCount:  opt.ShardCount,
		})
		if err != nil {
			return nil, err
		}
		c.log = log
	}
	return c, nil
}

// resume rebuilds the partition table from the event log and the shard
// checkpoints. Replay is sequential, so a later grant of a shard
// supersedes an earlier one and a missing requeue record self-heals.
// Leased shards come back with their lease IDs intact and a fresh TTL:
// a worker that survived the coordinator crash heartbeats on and its
// eventual completion is honored. Finally, every not-yet-done shard's
// checkpoint directory is scanned — a shard that finished but whose
// completion call was lost with the old coordinator is detected by its
// full journal and marked done.
func (c *Coordinator) resume(fsys chaos.FS) error {
	now := time.Now()
	sawHeader := false
	// Records are applied as they stream off disk — the log is never
	// held in memory whole, so a multi-MB log from a long fleet replays
	// in O(one record) space.
	log, err := openCoordLog(fsys, c.opt.Dir, func(i int, rec coordRecord) error {
		if i == 0 {
			if rec.Kind != recHeader {
				return fmt.Errorf("fleet: %s/%s: missing header record", c.opt.Dir, coordLogName)
			}
			if rec.Version != coordLogVersion {
				return fmt.Errorf("fleet: coord.log version %d, want %d", rec.Version, coordLogVersion)
			}
			if rec.Fingerprint != c.fingerprint {
				return fmt.Errorf("fleet: coord.log is for a different grid (fingerprint %.12s, want %.12s)", rec.Fingerprint, c.fingerprint)
			}
			if rec.ShardCount != len(c.shards) {
				return fmt.Errorf("fleet: coord.log has %d shards, want %d", rec.ShardCount, len(c.shards))
			}
			sawHeader = true
			return nil
		}
		if rec.Shard < 0 || rec.Shard >= len(c.shards) {
			return fmt.Errorf("fleet: coord.log references shard %d of %d", rec.Shard, len(c.shards))
		}
		s := c.shards[rec.Shard]
		switch rec.Kind {
		case recGrant:
			if s.leaseID != "" {
				delete(c.byLease, s.leaseID)
			}
			s.state = stateLeased
			s.worker = rec.Worker
			s.leaseID = rec.LeaseID
			s.expires = now.Add(c.opt.LeaseTTL)
			s.lastBeat = now
			c.byLease[rec.LeaseID] = rec.Shard
			if rec.Seq > c.leaseSeq {
				c.leaseSeq = rec.Seq
			}
		case recRequeue:
			if s.leaseID != "" {
				delete(c.byLease, s.leaseID)
			}
			s.state = statePending
			s.worker = ""
			s.leaseID = ""
			s.retries++
			// Re-derive permanent failure from the requeue count: the fail
			// record itself is unsynced and may not have survived.
			if c.opt.MaxShardRetries > 0 && s.retries >= c.opt.MaxShardRetries {
				s.state = stateFailed
			}
		case recFail:
			if s.leaseID != "" {
				delete(c.byLease, s.leaseID)
			}
			s.state = stateFailed
			s.worker = ""
			s.leaseID = ""
		case recComplete:
			if s.leaseID != "" {
				delete(c.byLease, s.leaseID)
			}
			s.state = stateDone
			s.worker = ""
			s.leaseID = ""
			if rec.Dir != "" {
				s.dir = rec.Dir
			}
		default:
			return fmt.Errorf("fleet: coord.log record kind %q", rec.Kind)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !sawHeader {
		log.Close()
		return fmt.Errorf("fleet: %s/%s: missing header record", c.opt.Dir, coordLogName)
	}
	c.log = log
	recovered := c.adoptFinishedCheckpoints()
	done := 0
	for _, s := range c.shards {
		if s.state == stateDone {
			done++
		}
	}
	c.logf("fleet: resumed from coord.log: %d/%d shards done (%d recovered from checkpoints), %d leases live, %d failed",
		done, len(c.shards), recovered, len(c.byLease), len(c.failedShardsLocked()))
	c.maybeFinishedLocked()
	return nil
}

// adoptFinishedCheckpoints scans every not-yet-done shard's checkpoint
// directory and marks as done those whose journal already holds every
// cell of the shard — work that finished while no coordinator was
// listening. Returns how many shards it recovered.
func (c *Coordinator) adoptFinishedCheckpoints() int {
	cells, err := c.grid.Cells()
	if err != nil {
		return 0
	}
	want := make([]int, len(c.shards))
	for _, cell := range cells {
		want[sweep.ShardOf(cell.Index, len(c.shards))]++
	}
	recovered := 0
	for i, s := range c.shards {
		if s.state == stateDone {
			continue
		}
		hdr, recs, err := sweepd.ReadCheckpoint(s.dir)
		if err != nil {
			continue // no/partial checkpoint: the shard really is unfinished
		}
		if hdr.Fingerprint != c.fingerprint || hdr.ShardIndex != i || hdr.ShardCount != len(c.shards) {
			continue
		}
		seen := make(map[int]bool, len(recs))
		for _, r := range recs {
			seen[r.Index] = true
		}
		if len(seen) < want[i] {
			continue
		}
		if err := c.log.append(coordRecord{Kind: recComplete, Shard: i, Dir: s.dir, Reason: "checkpoint scan"}, true); err != nil {
			continue
		}
		if s.leaseID != "" {
			delete(c.byLease, s.leaseID)
		}
		s.state = stateDone
		s.worker = ""
		s.leaseID = ""
		recovered++
	}
	return recovered
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/lease", c.handleLease)
	mux.HandleFunc("/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/complete", c.handleComplete)
	mux.HandleFunc("/v1/release", c.handleRelease)
	mux.HandleFunc("/v1/status", c.handleStatus)
	return mux
}

// Start listens on addr (host:port; port 0 picks a free one), serves the
// API in the background, and runs the lease-expiry loop. It returns the
// bound address.
func (c *Coordinator) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.lis = lis
	c.srv = &http.Server{Handler: c.Handler()}
	go c.srv.Serve(lis)
	go c.expiryLoop()
	return lis.Addr().String(), nil
}

// expiryLoop requeues shards whose leases stopped heartbeating.
func (c *Coordinator) expiryLoop() {
	period := c.opt.LeaseTTL / 4
	if period > time.Second {
		period = time.Second
	}
	if period <= 0 {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-c.doneCh:
			return
		case now := <-t.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// expireLocked requeues every leased shard whose lease has expired.
// The requeue record is journaled best-effort, unsynced: replay
// tolerates its loss because the superseding grant re-leases the shard.
func (c *Coordinator) expireLocked(now time.Time) {
	for i, s := range c.shards {
		if s.state == stateLeased && now.After(s.expires) {
			c.requeueLocked(i, "lease expired")
		}
	}
}

// requeueLocked returns shard i to the pending pool — or, when the
// retry budget is spent, marks it permanently failed.
func (c *Coordinator) requeueLocked(i int, reason string) {
	s := c.shards[i]
	c.log.append(coordRecord{Kind: recRequeue, Shard: i, Worker: s.worker, LeaseID: s.leaseID, Reason: reason}, false)
	delete(c.byLease, s.leaseID)
	s.state = statePending
	s.worker = ""
	s.leaseID = ""
	s.retries++
	if c.opt.MaxShardRetries > 0 && s.retries >= c.opt.MaxShardRetries {
		// The fail record is advisory (replay re-derives failure from the
		// requeue count), so an unsynced append is enough.
		c.log.append(coordRecord{Kind: recFail, Shard: i, Reason: fmt.Sprintf("%d retries", s.retries)}, false)
		s.state = stateFailed
		c.logf("fleet: shard %d permanently failed after %d retries (last: %s)", i, s.retries, reason)
		c.maybeFinishedLocked()
	}
}

// maybeFinishedLocked closes the done channel once no shard can make
// further progress: every shard is done or permanently failed. Wait
// distinguishes the two outcomes.
func (c *Coordinator) maybeFinishedLocked() {
	for _, s := range c.shards {
		if s.state != stateDone && s.state != stateFailed {
			return
		}
	}
	c.doneOnce.Do(func() { close(c.doneCh) })
}

// failedShardsLocked lists the permanently failed shards in order.
func (c *Coordinator) failedShardsLocked() []int {
	var failed []int
	for i, s := range c.shards {
		if s.state == stateFailed {
			failed = append(failed, i)
		}
	}
	return failed
}

// FailedShards lists the permanently failed shards (retry budget spent).
func (c *Coordinator) FailedShards() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failedShardsLocked()
}

// Wait blocks until no shard can make further progress or the context is
// cancelled. A fleet whose every shard completed returns nil; a fleet
// wedged by permanently failed shards returns an error naming them.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	if failed := c.FailedShards(); len(failed) > 0 {
		return fmt.Errorf("fleet: %d shard(s) permanently failed after exhausting %d retries: %v",
			len(failed), c.opt.MaxShardRetries, failed)
	}
	return nil
}

// Close stops the server and the expiry loop and releases the event
// log. Safe to call more than once.
func (c *Coordinator) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.stopHB)
		if c.srv != nil {
			err = c.srv.Close()
		}
		// The expiry loop may still be appending a requeue; every append
		// holds mu.
		c.mu.Lock()
		c.log.Close()
		c.mu.Unlock()
	})
	return err
}

// ShardDirs lists every shard's checkpoint directory in shard order —
// the merge input once Wait returns.
func (c *Coordinator) ShardDirs() []string {
	dirs := make([]string, len(c.shards))
	for i, s := range c.shards {
		dirs[i] = s.dir
	}
	return dirs
}

// Status snapshots the fleet for the dashboard.
func (c *Coordinator) Status() FleetStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := FleetStatus{
		Fingerprint: c.fingerprint,
		ShardCount:  len(c.shards),
		Shards:      make([]ShardStatus, len(c.shards)),
	}
	for i, s := range c.shards {
		row := ShardStatus{
			Shard:          i,
			State:          s.state,
			Worker:         s.worker,
			HeartbeatAgeMs: -1,
			Retries:        s.retries,
			Dir:            s.dir,
		}
		if s.state == stateLeased {
			row.HeartbeatAgeMs = float64(now.Sub(s.lastBeat).Nanoseconds()) / 1e6
		}
		if s.state == stateDone {
			st.Done++
		}
		if s.state == stateFailed {
			st.Failed = append(st.Failed, i)
		}
		st.Shards[i] = row
	}
	return st
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	resp := LeaseResponse{Status: StatusDone}
	allDone := true
	for i, s := range c.shards {
		// Failed shards are terminal too: once everything is done or
		// failed, workers are told the fleet is over so they exit instead
		// of polling a wedged coordinator forever.
		if s.state == stateDone || s.state == stateFailed {
			continue
		}
		allDone = false
		if s.state != statePending {
			continue
		}
		seq := c.leaseSeq + 1
		leaseID := fmt.Sprintf("s%d-e%d", i, seq)
		// The grant is journaled (and fsynced) before it is committed or
		// acknowledged: a coordinator that crashes right after answering
		// still knows about the lease on resume.
		if err := c.log.append(coordRecord{Kind: recGrant, Shard: i, Worker: req.Worker, LeaseID: leaseID, Seq: seq}, true); err != nil {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("journal: %v", err), http.StatusInternalServerError)
			return
		}
		c.leaseSeq = seq
		s.state = stateLeased
		s.worker = req.Worker
		s.leaseID = leaseID
		s.expires = now.Add(c.opt.LeaseTTL)
		s.lastBeat = now
		c.byLease[s.leaseID] = i
		resp = LeaseResponse{
			Status:     StatusLease,
			Shard:      i,
			ShardCount: len(c.shards),
			LeaseID:    s.leaseID,
			TTLMs:      c.opt.LeaseTTL.Milliseconds(),
			Dir:        s.dir,
			Grid:       c.grid,
		}
		break
	}
	if allDone {
		resp = LeaseResponse{Status: StatusDone}
	} else if resp.Status == StatusDone {
		// Every open shard is leased: ask again in a quarter lease.
		resp = LeaseResponse{Status: StatusWait, RetryMs: (c.opt.LeaseTTL / 4).Milliseconds()}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	i, ok := c.byLease[req.LeaseID]
	if ok {
		s := c.shards[i]
		s.expires = now.Add(c.opt.LeaseTTL)
		s.lastBeat = now
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusGone, OKResponse{Status: "revoked"})
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{Status: "ok"})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	i, ok := c.byLease[req.LeaseID]
	if ok {
		s := c.shards[i]
		// Journal first: an unacknowledged completion is retried by the
		// worker, an acknowledged one must survive a coordinator crash.
		if err := c.log.append(coordRecord{Kind: recComplete, Shard: i, Worker: s.worker, LeaseID: s.leaseID, Dir: req.Dir}, true); err != nil {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("journal: %v", err), http.StatusInternalServerError)
			return
		}
		delete(c.byLease, s.leaseID)
		s.state = stateDone
		s.worker = ""
		s.leaseID = ""
		if req.Dir != "" {
			s.dir = req.Dir
		}
		c.maybeFinishedLocked()
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusGone, OKResponse{Status: "revoked"})
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{Status: "ok"})
}

// handleRelease returns a still-valid lease to the pending pool at the
// worker's request — it hit a run error and wants the shard retried
// (possibly elsewhere) without waiting out the TTL.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	i, ok := c.byLease[req.LeaseID]
	if ok {
		reason := req.Reason
		if reason == "" {
			reason = "released"
		}
		c.requeueLocked(i, reason)
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusGone, OKResponse{Status: "revoked"})
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{Status: "ok"})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Status())
}

// decodeJSON parses a request body, answering 400 on garbage (an empty
// body reads as the zero value). Returns false when the response is
// already written.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
