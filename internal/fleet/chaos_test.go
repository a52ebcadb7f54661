package fleet

// Robustness tests: retry pacing, durable coordinator resume, and a
// seeded chaos fleet whose merged output must stay byte-identical to a
// fault-free single-process run.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doda/internal/chaos"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// tinyGrid keeps the resume tests fast; byte-identity is covered by the
// full testGrid elsewhere.
func tinyGrid() sweep.Grid {
	return sweep.Grid{
		Scenarios:  []sweep.ScenarioRef{{Name: "uniform"}, {Name: "churn"}},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      []int{4, 5, 6, 7},
		Replicas:   1,
		Seed:       777,
	}
}

// TestRetryBackoffDeterministicAndBounded: the fleet's RetryPolicy paces
// retries with jitter that is a pure function of (seed, call, attempt)
// and stays within [d/2, d) of the doubling-then-capped delay d.
func TestRetryBackoffDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	for k := 1; k < p.Attempts; k++ {
		d := p.Max
		if exp := p.Base << (k - 1); exp > 0 && exp < p.Max {
			d = exp
		}
		got := p.Backoff(11, 3, k)
		if got < d/2 || got >= d {
			t.Fatalf("backoff k=%d: %v outside [%v, %v)", k, got, d/2, d)
		}
		if got != p.Backoff(11, 3, k) {
			t.Fatalf("backoff k=%d not deterministic", k)
		}
	}
	if p.Backoff(11, 3, 1) == p.Backoff(12, 3, 1) && p.Backoff(11, 4, 1) == p.Backoff(11, 3, 1) {
		t.Fatal("jitter ignores seed and call number")
	}
}

// TestPostJSONRetryHealsTransient: two 503s then success must succeed
// after exactly three attempts.
func TestPostJSONRetryHealsTransient(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, OKResponse{Status: "ok"})
	}))
	defer srv.Close()
	var ack OKResponse
	pol := RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond}
	code, err := postJSONRetry(context.Background(), srv.Client(), srv.URL, OKResponse{}, &ack, pol, 1, 1)
	if err != nil || code != http.StatusOK {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
	if ack.Status != "ok" {
		t.Fatalf("ack %+v", ack)
	}
}

// TestPostJSONRetryTerminal410: a deliberate 410 must not be retried.
func TestPostJSONRetryTerminal410(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusGone, OKResponse{Status: "revoked"})
	}))
	defer srv.Close()
	code, err := postJSONRetry(context.Background(), srv.Client(), srv.URL, OKResponse{}, nil,
		RetryPolicy{Attempts: 5, Base: time.Millisecond}, 1, 1)
	if err != nil || code != http.StatusGone {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("410 retried: %d attempts", got)
	}
}

// TestPostJSONRetryExhaustsBudget: a server that never heals burns
// exactly Attempts tries and reports why.
func TestPostJSONRetryExhaustsBudget(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "dead", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := postJSONRetry(context.Background(), srv.Client(), srv.URL, OKResponse{}, nil,
		RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond}, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("want budget-exhausted error, got %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
}

// TestGarbledResponseLeavesDstUntouched: a 200 with a hostile body must
// error without half-writing the destination.
func TestGarbledResponseLeavesDstUntouched(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"lease","shard":7,"lease_id":`) // truncated mid-value
	}))
	defer srv.Close()
	lease := LeaseResponse{Status: "sentinel"}
	_, err := postJSON(context.Background(), srv.Client(), srv.URL, LeaseRequest{}, &lease)
	if err == nil {
		t.Fatal("truncated body must error")
	}
	if lease.Status != "sentinel" || lease.Shard != 0 {
		t.Fatalf("dst was partially written: %+v", lease)
	}
}

// leaseFrom takes one lease directly off the wire.
func leaseFrom(t *testing.T, url, worker string) LeaseResponse {
	t.Helper()
	var lease LeaseResponse
	code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
		LeaseRequest{Worker: worker}, &lease)
	if err != nil || code != http.StatusOK || lease.Status != StatusLease {
		t.Fatalf("lease for %s: code=%d status=%q err=%v", worker, code, lease.Status, err)
	}
	return lease
}

// runShard executes one lease's shard to completion in-process.
func runShard(t *testing.T, lease LeaseResponse) {
	t.Helper()
	if _, _, err := sweepd.Run(lease.Grid, lease.Dir, sweepd.Options{
		Workers: 1, ShardIndex: lease.Shard, ShardCount: lease.ShardCount, Resume: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorResumeRestoresTable: a restarted coordinator must know
// completed shards, honor surviving leases (same lease ID, fresh TTL),
// and adopt checkpoints that finished while it was down.
func TestCoordinatorResumeRestoresTable(t *testing.T) {
	grid := tinyGrid()
	dir := t.TempDir()
	c1, url1 := startCoordinator(t, grid, CoordinatorOptions{ShardCount: 3, Dir: dir, LeaseTTL: time.Minute})

	// Shard A: completed and reported.
	la := leaseFrom(t, url1, "w-done")
	runShard(t, la)
	var ack OKResponse
	if code, err := postJSON(context.Background(), http.DefaultClient, url1+"/v1/complete",
		CompleteRequest{LeaseID: la.LeaseID, Dir: la.Dir}, &ack); err != nil || code != http.StatusOK {
		t.Fatalf("complete: code=%d err=%v", code, err)
	}
	// Shard B: leased and still running when the coordinator dies.
	lb := leaseFrom(t, url1, "w-survivor")
	// Shard C: completed on disk but the completion call was lost.
	lc := leaseFrom(t, url1, "w-lost")
	runShard(t, lc)

	c1.Close()

	c2, url2 := startCoordinator(t, grid, CoordinatorOptions{ShardCount: 3, Dir: dir, LeaseTTL: time.Minute, Resume: true})
	st := c2.Status()
	if st.Shards[la.Shard].State != stateDone {
		t.Fatalf("completed shard not restored: %+v", st.Shards[la.Shard])
	}
	if s := st.Shards[lc.Shard]; s.State != stateDone {
		t.Fatalf("finished checkpoint not adopted: %+v", s)
	}
	if s := st.Shards[lb.Shard]; s.State != stateLeased || s.Worker != "w-survivor" {
		t.Fatalf("surviving lease not restored: %+v", s)
	}
	// The survivor's old lease ID must still heartbeat and complete.
	if code, err := postJSON(context.Background(), http.DefaultClient, url2+"/v1/heartbeat",
		HeartbeatRequest{LeaseID: lb.LeaseID}, &ack); err != nil || code != http.StatusOK {
		t.Fatalf("survivor heartbeat: code=%d err=%v", code, err)
	}
	runShard(t, lb)
	if code, err := postJSON(context.Background(), http.DefaultClient, url2+"/v1/complete",
		CompleteRequest{LeaseID: lb.LeaseID, Dir: lb.Dir}, &ack); err != nil || code != http.StatusOK {
		t.Fatalf("survivor complete: code=%d err=%v", code, err)
	}
	if err := c2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	want, wantTotals, err := sweep.Run(grid, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, gotTotals, err := sweepd.Merge(c2.ShardDirs())
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, got, gotTotals) != renderJSONL(t, want, wantTotals) {
		t.Fatal("resumed fleet merge differs from single-process run")
	}
}

// TestResumeRefusesForeignLog: a coord.log from another grid or shard
// count must not be resumed.
func TestResumeRefusesForeignLog(t *testing.T) {
	dir := t.TempDir()
	grid := tinyGrid()
	c, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	other := grid
	other.Seed = 778
	if _, err := NewCoordinator(other, CoordinatorOptions{ShardCount: 3, Dir: dir, Resume: true}); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign grid resume: want fingerprint error, got %v", err)
	}
	if _, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 4, Dir: dir, Resume: true}); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("shard-count mismatch resume: want error, got %v", err)
	}
	if _, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 3, Dir: dir}); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("fresh coordinator over existing log: want refusal, got %v", err)
	}
	if _, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 3, Dir: t.TempDir(), Resume: true}); err == nil || !strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("resume without a log: want error, got %v", err)
	}
}

// TestCoordLogShortWriteKeepsServing injects one short write into
// coord.log: the grant it tore is refused, the coordinator keeps leasing,
// and a resume replays every acknowledged record. The failed append must
// stop the log until the partial record is cut away — a record appended
// behind it would make resume fail on a crc mismatch, or drop that
// acknowledged record as a torn tail.
func TestCoordLogShortWriteKeepsServing(t *testing.T) {
	grid := tinyGrid()
	dir := t.TempDir()
	opt := CoordinatorOptions{ShardCount: 3, Dir: dir, LeaseTTL: time.Minute}
	c0, err := NewCoordinator(grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	c0.Close()

	// The schedule's one fault tears the first append after resume.
	opt.Resume = true
	ffs := chaos.NewFaultFS(nil, chaos.FSOptions{Seed: 1, WriteFail: 1, MaxFaults: 1})
	c, err := newCoordinator(grid, opt, ffs)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var refused LeaseResponse
	code, err := postJSON(context.Background(), http.DefaultClient, srv.URL+"/v1/lease", LeaseRequest{Worker: "torn"}, &refused)
	if err != nil || code != http.StatusInternalServerError || ffs.Faults() != 1 {
		t.Fatalf("torn grant: code=%d err=%v faults=%d, want a refused lease", code, err, ffs.Faults())
	}
	la := leaseFrom(t, srv.URL, "w-done")
	lb := leaseFrom(t, srv.URL, "w-live")
	runShard(t, la)
	var ack OKResponse
	if code, err := postJSON(context.Background(), http.DefaultClient, srv.URL+"/v1/complete",
		CompleteRequest{LeaseID: la.LeaseID, Dir: la.Dir}, &ack); err != nil || code != http.StatusOK {
		t.Fatalf("complete: code=%d err=%v", code, err)
	}
	c.Close()

	c2, err := NewCoordinator(grid, opt)
	if err != nil {
		t.Fatalf("resume after a torn append: %v", err)
	}
	defer c2.Close()
	st := c2.Status()
	if s := st.Shards[la.Shard]; s.State != stateDone {
		t.Fatalf("acknowledged completion lost: %+v", s)
	}
	if s := st.Shards[lb.Shard]; s.State != stateLeased || s.Worker != "w-live" {
		t.Fatalf("acknowledged grant lost: %+v", s)
	}
	for _, s := range st.Shards {
		if s.Worker == "torn" || s.Retries != 0 {
			t.Fatalf("refused grant replayed: %+v", s)
		}
	}
}

// TestCoordinatorCrashMidFleetResume is the pillar-1 e2e: kill the
// coordinator while workers are mid-shard, resume it on the same
// address, and require the merged output byte-identical to an
// uninterrupted run.
func TestCoordinatorCrashMidFleetResume(t *testing.T) {
	grid := testGrid()
	want, wantTotals, err := sweep.Run(grid, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c1, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 4, Dir: dir, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr

	// Workers with a patient retry policy: they must ride out the
	// coordinator's death and rebirth without giving up.
	pol := RetryPolicy{Attempts: 60, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond}
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			errs <- Work(context.Background(), url, WorkerOptions{
				Name: fmt.Sprintf("worker-%d", w), Workers: 2, Retry: pol, Logf: t.Logf,
			})
		}(w)
	}

	// Kill the coordinator once at least one grant is journaled.
	deadline := time.Now().Add(10 * time.Second)
	for c1.Status().Done == 0 && time.Now().Before(deadline) {
		leased := false
		for _, s := range c1.Status().Shards {
			if s.State == stateLeased {
				leased = true
			}
		}
		if leased {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()

	c2, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: 4, Dir: dir, LeaseTTL: 10 * time.Second, Resume: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// The old port lingers briefly; retry the bind like a restarted
	// process would.
	for i := 0; ; i++ {
		if _, err = c2.Start(addr); err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c2.Close()

	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c2.Wait(ctx); err != nil {
		t.Fatalf("resumed coordinator never completed: %v", err)
	}

	got, gotTotals, err := sweepd.Merge(c2.ShardDirs())
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, got, gotTotals) != renderJSONL(t, want, wantTotals) {
		t.Fatal("crash-resumed fleet merge differs from single-process run")
	}
}

// TestChaosFleetByteIdentical is the pillar-3 e2e: three workers, each
// with a seeded fault filesystem and a seeded fault transport, restart
// on every injected death until the fleet drains — and the merge must
// still be byte-identical to a clean single-process run.
func TestChaosFleetByteIdentical(t *testing.T) {
	grid := testGrid()
	want, wantTotals, err := sweep.Run(grid, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 4,
		Dir:        t.TempDir(),
		LeaseTTL:   2 * time.Second,
	})

	pol := RetryPolicy{Attempts: 10, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			seed := uint64(1000 + w)
			fs := chaos.NewFaultFS(chaos.Disk, chaos.FSOptions{
				Seed: seed, WriteFail: 0.05, SyncFail: 0.05, RenameFail: 0.03, TornRename: 0.02, MaxFaults: 6,
			})
			client := &http.Client{
				Timeout: 10 * time.Second,
				Transport: chaos.NewTransport(nil, chaos.TransportOptions{
					Seed: seed, Latency: 0.1, MaxLatency: 20 * time.Millisecond,
					Reset: 0.05, Err5xx: 0.05, DropResponse: 0.03, MaxFaults: 10,
				}),
			}
			opt := WorkerOptions{
				Name: fmt.Sprintf("chaos-%d", w), Workers: 2,
				Client: client, Retry: pol, RetrySeed: seed, FS: fs, Logf: t.Logf,
			}
			// Each injected death is a process crash; the restart loop is
			// the supervisor. The fault budget guarantees convergence.
			var err error
			for attempt := 0; attempt < 40; attempt++ {
				err = Work(context.Background(), url, opt)
				if err == nil {
					break
				}
				t.Logf("chaos worker %d restart %d: %v", w, attempt, err)
				fs.Revive()
			}
			errs <- err
		}(w)
	}
	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("chaos worker never converged: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("fleet never drained under chaos: %v", err)
	}

	got, gotTotals, err := sweepd.Merge(c.ShardDirs())
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, got, gotTotals) != renderJSONL(t, want, wantTotals) {
		t.Fatal("chaos fleet merge differs from fault-free single-process run")
	}
}

// TestWorkerReleasesLeaseOnRunError: a run error must requeue the shard
// immediately via /v1/release, not after TTL expiry.
func TestWorkerReleasesLeaseOnRunError(t *testing.T) {
	grid := tinyGrid()
	c, url := startCoordinator(t, grid, CoordinatorOptions{ShardCount: 2, Dir: t.TempDir(), LeaseTTL: time.Minute})

	lease := leaseFrom(t, url, "erroring")
	var ack OKResponse
	code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/release",
		ReleaseRequest{LeaseID: lease.LeaseID, Reason: "disk on fire"}, &ack)
	if err != nil || code != http.StatusOK {
		t.Fatalf("release: code=%d err=%v", code, err)
	}
	st := c.Status()
	if s := st.Shards[lease.Shard]; s.State != statePending || s.Retries != 1 {
		t.Fatalf("released shard not requeued: %+v", s)
	}
	// A second release of the same (now dead) lease answers 410.
	code, err = postJSON(context.Background(), http.DefaultClient, url+"/v1/release",
		ReleaseRequest{LeaseID: lease.LeaseID}, &ack)
	if err != nil || code != http.StatusGone {
		t.Fatalf("stale release: code=%d err=%v", code, err)
	}
}
