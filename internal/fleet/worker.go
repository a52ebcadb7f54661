package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"doda/internal/chaos"
	"doda/internal/rng"
	"doda/internal/sweepd"
)

// ErrLeaseRevoked aborts a shard run whose lease the coordinator
// reassigned (the worker missed heartbeats, typically after a stall).
// The abandoned checkpoint stays valid; whoever holds the new lease
// resumes it.
var ErrLeaseRevoked = errors.New("fleet: lease revoked")

// WorkerOptions tunes one worker process.
type WorkerOptions struct {
	// Name identifies the worker in leases and dashboards (default
	// host:pid).
	Name string
	// Workers is the in-process sweep worker count per leased shard
	// (< 1 = GOMAXPROCS).
	Workers int
	// PerReplica selects replica-granularity checkpointing for the
	// shards this worker runs.
	PerReplica bool
	// OnProgress, when non-nil, observes each leased shard's progress
	// flushes.
	OnProgress func(shard int, p sweepd.Progress)
	// Client overrides the HTTP client (tests, chaos transports).
	Client *http.Client
	// Retry paces re-attempts of coordinator calls that fail
	// transiently (zero value = defaults; see RetryPolicy).
	Retry RetryPolicy
	// RetrySeed seeds the deterministic retry jitter (0 = derived from
	// Name, so same-named reruns jitter identically).
	RetrySeed uint64
	// FS is the filesystem the leased shards' journals publish through
	// (nil = the real disk; chaos tests hand a chaos.FaultFS in here).
	FS chaos.FS
	// Logf, when non-nil, receives worker lifecycle lines: why the loop
	// ended, exhausted retry budgets, released leases. Printf semantics.
	Logf func(format string, args ...any)
}

// wclient is one worker's view of the coordinator: every call runs
// under the retry policy with a per-call jitter stream.
type wclient struct {
	hc    *http.Client
	base  string
	pol   RetryPolicy
	seed  uint64
	calls atomic.Uint64
	logf  func(format string, args ...any)
}

func (w *wclient) post(ctx context.Context, path string, body, dst any) (int, error) {
	return postJSONRetry(ctx, w.hc, w.base+path, body, dst, w.pol, w.seed, w.calls.Add(1))
}

// Work runs the worker loop against the coordinator at baseURL (e.g.
// "http://127.0.0.1:7700"): lease a shard, execute it with checkpointing
// and heartbeats, report completion, repeat until the coordinator says
// the fleet is done. Transient call failures (resets, 5xx, timeouts)
// retry with jittered backoff; only after the budget is exhausted on a
// coordinator we had already reached does the loop conclude it is gone
// and end cleanly — logging why — since the journaled work is durable
// and a restarted coordinator can hand the shards out again.
func Work(ctx context.Context, baseURL string, opt WorkerOptions) error {
	if opt.Name == "" {
		host, _ := os.Hostname()
		opt.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	if opt.RetrySeed == 0 {
		h := fnv.New64a()
		h.Write([]byte(opt.Name))
		opt.RetrySeed = h.Sum64()
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	wc := &wclient{hc: client, base: baseURL, pol: opt.Retry.WithDefaults(), seed: opt.RetrySeed, logf: logf}

	contacted := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		code, err := wc.post(ctx, "/v1/lease", LeaseRequest{Worker: opt.Name}, &lease)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			if contacted {
				logf("fleet: worker %s: coordinator unreachable, giving up: %v", opt.Name, err)
				return nil // journaled work is durable; a restarted coordinator re-leases it
			}
			return fmt.Errorf("fleet: cannot reach coordinator: %w", err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("fleet: lease request: HTTP %d", code)
		}
		contacted = true
		switch lease.Status {
		case StatusDone:
			logf("fleet: worker %s: fleet done, exiting", opt.Name)
			return nil
		case StatusWait:
			wait := time.Duration(lease.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
		case StatusLease:
			if err := runLease(ctx, wc, lease, opt); err != nil {
				if errors.Is(err, ErrLeaseRevoked) {
					logf("fleet: worker %s: %v", opt.Name, err)
					continue // someone else owns the shard now
				}
				return err
			}
		default:
			return fmt.Errorf("fleet: lease response status %q", lease.Status)
		}
	}
}

// runLease executes one leased shard: heartbeat in the background, run
// the checkpointed sweep (resuming whatever a previous leaseholder
// journaled), then report completion. A run error releases the lease so
// the shard requeues immediately rather than waiting out the TTL.
func runLease(ctx context.Context, wc *wclient, lease LeaseResponse, opt WorkerOptions) error {
	var revoked atomic.Bool
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go heartbeatLoop(hbCtx, wc, lease, &revoked)

	checkRevoked := func() error {
		if revoked.Load() {
			return fmt.Errorf("%w: shard %d", ErrLeaseRevoked, lease.Shard)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	sopt := sweepd.Options{
		Workers:         opt.Workers,
		ShardIndex:      lease.Shard,
		ShardCount:      lease.ShardCount,
		Resume:          true,
		PerReplica:      opt.PerReplica,
		FS:              opt.FS,
		AfterCheckpoint: func(done, total int) error { return checkRevoked() },
	}
	if opt.PerReplica {
		sopt.AfterReplica = func(cell, reps int) error { return checkRevoked() }
	}
	if opt.OnProgress != nil {
		shard := lease.Shard
		sopt.OnProgress = func(p sweepd.Progress) { opt.OnProgress(shard, p) }
	}
	if _, _, err := sweepd.Run(lease.Grid, lease.Dir, sopt); err != nil {
		releaseLease(ctx, wc, lease, err)
		return err
	}
	stopHB()

	var ack OKResponse
	code, err := wc.post(ctx, "/v1/complete",
		CompleteRequest{LeaseID: lease.LeaseID, Dir: lease.Dir}, &ack)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		// Coordinator gone past the retry budget; the finished journal
		// speaks for itself when a resumed coordinator rescans it.
		wc.logf("fleet: shard %d finished but completion not delivered: %v", lease.Shard, err)
		return nil
	}
	if code == http.StatusGone {
		// The lease expired while we finished; the next leaseholder's
		// resume is a no-op and reports the shard complete.
		return fmt.Errorf("%w: shard %d (completed late)", ErrLeaseRevoked, lease.Shard)
	}
	if code != http.StatusOK {
		return fmt.Errorf("fleet: complete: HTTP %d", code)
	}
	return nil
}

// releaseLease best-effort hands a lease back after a run error. One
// try, no retries: if it is lost the TTL expiry requeues the shard
// anyway, just slower.
func releaseLease(ctx context.Context, wc *wclient, lease LeaseResponse, cause error) {
	relCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	var ack OKResponse
	if _, err := postJSON(relCtx, wc.hc, wc.base+"/v1/release",
		ReleaseRequest{LeaseID: lease.LeaseID, Reason: cause.Error()}, &ack); err == nil {
		wc.logf("fleet: released lease on shard %d after error: %v", lease.Shard, cause)
	}
}

// heartbeatLoop extends the lease on a jittered TTL/3 period until
// stopped, flagging revocation when the coordinator answers 410 or
// stays unreachable for a full retry budget of beats in a row (a dead
// coordinator cannot merge, so finishing the shard for it has no owner
// — abort and keep the journal). The jitter (±20%, deterministic from
// the retry seed) keeps a fleet's heartbeats from arriving in lockstep.
func heartbeatLoop(ctx context.Context, wc *wclient, lease LeaseResponse, revoked *atomic.Bool) {
	period := time.Duration(lease.TTLMs) * time.Millisecond / 3
	if period <= 0 {
		period = time.Second
	}
	h := fnv.New64a()
	h.Write([]byte(lease.LeaseID))
	jitter := rng.New(wc.seed ^ h.Sum64())
	next := func() time.Duration {
		return period*4/5 + time.Duration(jitter.Float64()*float64(period)*0.4)
	}
	t := time.NewTimer(next())
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var ack OKResponse
			code, err := postJSON(ctx, wc.hc, wc.base+"/v1/heartbeat",
				HeartbeatRequest{LeaseID: lease.LeaseID}, &ack)
			switch {
			case transient(code, err):
				if misses++; misses >= wc.pol.Attempts {
					wc.logf("fleet: shard %d: %d heartbeats unanswered, abandoning lease", lease.Shard, misses)
					revoked.Store(true)
					return
				}
			case code == http.StatusOK:
				misses = 0
			default:
				revoked.Store(true)
				return
			}
			t.Reset(next())
		}
	}
}

// FetchStatus reads the coordinator's fleet dashboard. The response is
// decoded under the same hardened contract as the POST calls.
func FetchStatus(ctx context.Context, client *http.Client, baseURL string) (FleetStatus, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/status", nil)
	if err != nil {
		return FleetStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return FleetStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return FleetStatus{}, fmt.Errorf("fleet: status: HTTP %d", resp.StatusCode)
	}
	var st FleetStatus
	if err := decodeBody(resp, baseURL+"/v1/status", &st); err != nil {
		return FleetStatus{}, err
	}
	return st, nil
}
