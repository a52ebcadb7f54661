package fleet

// Fleet differential tests: a coordinator handing shard leases to
// in-process workers must merge to output byte-identical to a plain
// single-process sweep — including when a worker dies mid-shard and its
// lease is requeued to a survivor.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doda/internal/chaos"
	"doda/internal/recordlog"
	"doda/internal/sweep"
	"doda/internal/sweepd"
)

// testGrid is small enough for fast fleets but spans scenarios and
// algorithms so shard hashes land everywhere.
func testGrid() sweep.Grid {
	sizes := make([]int, 12)
	for i := range sizes {
		sizes[i] = 4 + i
	}
	return sweep.Grid{
		Scenarios: []sweep.ScenarioRef{
			{Name: "uniform"},
			{Name: "zipf", Params: map[string]string{"alpha": "1"}},
			{Name: "churn"},
		},
		Algorithms: []string{"waiting", "gathering"},
		Sizes:      sizes,
		Replicas:   2,
		Seed:       90210,
	}
}

func renderJSONL(t *testing.T, results []sweep.CellResult, totals sweep.Totals) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(totals); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// startCoordinator boots a coordinator on a loopback port and tears it
// down with the test.
func startCoordinator(t *testing.T, grid sweep.Grid, opt CoordinatorOptions) (*Coordinator, string) {
	t.Helper()
	c, err := NewCoordinator(grid, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, "http://" + addr
}

// TestFleetByteIdenticalToSingleProcess is the heart of the fleet
// contract: 3 workers draining 4 shard leases merge to the exact stream
// one process produces.
func TestFleetByteIdenticalToSingleProcess(t *testing.T) {
	grid := testGrid()
	want, wantTotals, err := sweep.Run(grid, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 4,
		Dir:        t.TempDir(),
		LeaseTTL:   30 * time.Second,
	})
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		go func(w int) {
			errs <- Work(context.Background(), url, WorkerOptions{
				Name: fmt.Sprintf("worker-%d", w), Workers: 2,
			})
		}(w)
	}
	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("coordinator never completed: %v", err)
	}

	got, gotTotals, err := sweepd.Merge(c.ShardDirs())
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, got, gotTotals) != renderJSONL(t, want, wantTotals) {
		t.Fatal("fleet merge differs from single-process run")
	}
}

// TestDeadWorkerLeaseRequeued kills a worker mid-shard (it journals two
// cells, stops heartbeating, and vanishes without completing); the
// lease must expire, be requeued, and the surviving workers must finish
// the fleet with byte-identical merged output.
func TestDeadWorkerLeaseRequeued(t *testing.T) {
	grid := testGrid()
	want, wantTotals, err := sweep.Run(grid, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	c, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 3,
		Dir:        t.TempDir(),
		LeaseTTL:   200 * time.Millisecond,
	})

	// The doomed worker: takes the first lease, journals two cells, and
	// dies — no completion report, no further heartbeats.
	var lease LeaseResponse
	code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
		LeaseRequest{Worker: "doomed"}, &lease)
	if err != nil || code != http.StatusOK || lease.Status != StatusLease {
		t.Fatalf("doomed worker lease: code=%d status=%q err=%v", code, lease.Status, err)
	}
	killed := errors.New("simulated worker death")
	_, _, err = sweepd.Run(lease.Grid, lease.Dir, sweepd.Options{
		Workers:    1,
		ShardIndex: lease.Shard,
		ShardCount: lease.ShardCount,
		Resume:     true,
		AfterCheckpoint: func(done, total int) error {
			if done >= 2 {
				return killed
			}
			return nil
		},
	})
	if !errors.Is(err, killed) {
		t.Fatalf("doomed worker: want injected death, got %v", err)
	}

	// Its lease must expire and requeue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		s := st.Shards[lease.Shard]
		if s.State == statePending && s.Retries >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never requeued: %+v", s)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Two healthy workers drain the fleet, resuming the dead worker's
	// checkpoint.
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			errs <- Work(context.Background(), url, WorkerOptions{
				Name: fmt.Sprintf("healthy-%d", w), Workers: 2,
			})
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Fatalf("worker failed: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("coordinator never completed: %v", err)
	}
	st := c.Status()
	if st.Shards[lease.Shard].Retries < 1 {
		t.Fatalf("shard %d should record a retry, got %+v", lease.Shard, st.Shards[lease.Shard])
	}

	got, gotTotals, err := sweepd.Merge(c.ShardDirs())
	if err != nil {
		t.Fatal(err)
	}
	if renderJSONL(t, got, gotTotals) != renderJSONL(t, want, wantTotals) {
		t.Fatal("fleet merge with requeued lease differs from single-process run")
	}
}

// TestHeartbeatRevocationStopsStaleWorker proves a stale leaseholder is
// told to stand down: after its lease expires and requeues, its
// heartbeat gets 410.
func TestHeartbeatRevocationStopsStaleWorker(t *testing.T) {
	grid := testGrid()
	_, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 2,
		Dir:        t.TempDir(),
		LeaseTTL:   50 * time.Millisecond,
	})
	var lease LeaseResponse
	code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
		LeaseRequest{Worker: "stale"}, &lease)
	if err != nil || code != http.StatusOK || lease.Status != StatusLease {
		t.Fatalf("lease: code=%d status=%q err=%v", code, lease.Status, err)
	}
	time.Sleep(150 * time.Millisecond) // let the lease expire
	var ack OKResponse
	code, err = postJSON(context.Background(), http.DefaultClient, url+"/v1/heartbeat",
		HeartbeatRequest{LeaseID: lease.LeaseID}, &ack)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusGone {
		t.Fatalf("stale heartbeat: want 410, got %d", code)
	}
	code, err = postJSON(context.Background(), http.DefaultClient, url+"/v1/complete",
		CompleteRequest{LeaseID: lease.LeaseID, Dir: lease.Dir}, &ack)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusGone {
		t.Fatalf("stale complete: want 410, got %d", code)
	}
}

// TestStatusEndpoint sanity-checks the dashboard payload over HTTP.
func TestStatusEndpoint(t *testing.T) {
	grid := testGrid()
	_, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 2,
		Dir:        filepath.Join(t.TempDir(), "fleet"),
		LeaseTTL:   time.Minute,
	})
	var lease LeaseResponse
	if _, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
		LeaseRequest{Worker: "w0"}, &lease); err != nil {
		t.Fatal(err)
	}
	st, err := FetchStatus(context.Background(), nil, url)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := grid.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fingerprint != fp {
		t.Fatalf("status fingerprint %.12s, want %.12s", st.Fingerprint, fp)
	}
	if st.ShardCount != 2 || len(st.Shards) != 2 {
		t.Fatalf("status shards: %+v", st)
	}
	if st.Shards[lease.Shard].State != stateLeased || st.Shards[lease.Shard].Worker != "w0" {
		t.Fatalf("leased shard row: %+v", st.Shards[lease.Shard])
	}
	if age := st.Shards[lease.Shard].HeartbeatAgeMs; age < 0 {
		t.Fatalf("leased shard should have a heartbeat age, got %v", age)
	}
}

// TestWorkerExitsWhenFleetDone: a late worker joining a finished fleet
// exits immediately with no error.
func TestWorkerExitsWhenFleetDone(t *testing.T) {
	grid := testGrid()
	_, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount: 1,
		Dir:        t.TempDir(),
		LeaseTTL:   time.Minute,
	})
	if err := Work(context.Background(), url, WorkerOptions{Name: "first", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Work(context.Background(), url, WorkerOptions{Name: "late"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late worker never exited")
	}
}

// TestShardRetryBudgetFailsPermanently: a shard whose workers keep
// releasing it burns its retry budget and is marked permanently failed —
// leases stop being handed out, Wait reports the wedge instead of
// blocking forever, and a resumed coordinator re-derives the failure
// from the journal.
func TestShardRetryBudgetFailsPermanently(t *testing.T) {
	grid := testGrid()
	dir := t.TempDir()
	c, url := startCoordinator(t, grid, CoordinatorOptions{
		ShardCount:      2,
		Dir:             dir,
		LeaseTTL:        time.Minute,
		MaxShardRetries: 2,
	})

	// Burn both shards' budgets: lease, then hand the lease straight
	// back as failed. Two releases per shard exhaust MaxShardRetries=2.
	for i := 0; i < 4; i++ {
		var lease LeaseResponse
		code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
			LeaseRequest{Worker: "flaky"}, &lease)
		if err != nil || code != http.StatusOK || lease.Status != StatusLease {
			t.Fatalf("lease %d: code=%d status=%q err=%v", i, code, lease.Status, err)
		}
		var ack OKResponse
		if _, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/release",
			ReleaseRequest{LeaseID: lease.LeaseID, Reason: "injected failure"}, &ack); err != nil {
			t.Fatal(err)
		}
	}

	// The fleet is wedged: no more leases, both shards failed.
	var lease LeaseResponse
	code, err := postJSON(context.Background(), http.DefaultClient, url+"/v1/lease",
		LeaseRequest{Worker: "late"}, &lease)
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-failure lease: code=%d err=%v", code, err)
	}
	if lease.Status != StatusDone {
		t.Fatalf("wedged fleet must tell workers it is over, got %q", lease.Status)
	}
	st := c.Status()
	if len(st.Failed) != 2 || st.Failed[0] != 0 || st.Failed[1] != 1 {
		t.Fatalf("status failed list: %v", st.Failed)
	}
	for i, s := range st.Shards {
		if s.State != stateFailed {
			t.Fatalf("shard %d state %q, want failed", i, s.State)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = c.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "permanently failed") {
		t.Fatalf("Wait on wedged fleet: want failed-shards error, got %v", err)
	}

	// A resumed coordinator must still know the shards are failed.
	c.Close()
	c2, err := NewCoordinator(grid, CoordinatorOptions{
		ShardCount: 2, Dir: dir, Resume: true, MaxShardRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if failed := c2.FailedShards(); len(failed) != 2 {
		t.Fatalf("resumed coordinator failed shards: %v", failed)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := c2.Wait(ctx2); err == nil {
		t.Fatal("resumed Wait on wedged fleet must not return nil")
	}
}

// TestResumeStreamsMultiMBLog pins the streaming replay path: a
// coordinator log several MB long (tens of thousands of grant/requeue
// churn records, the shape a week-long fleet leaves behind) resumes
// correctly, and a torn final append is truncated away. Replay memory
// is bounded structurally — openCoordLog hands records to a callback
// one at a time instead of materializing the log — so this test's job
// is to prove the streaming decoder agrees with the old whole-file
// semantics at realistic scale.
func TestResumeStreamsMultiMBLog(t *testing.T) {
	grid := testGrid()
	fp, err := grid.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	dir := t.TempDir()

	enc := func(rec coordRecord) []byte {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return recordlog.AppendFrame(nil, body)
	}
	var raw bytes.Buffer
	raw.Write(enc(coordRecord{Kind: recHeader, Version: coordLogVersion, Fingerprint: fp, ShardCount: shards}))
	// Churn: every shard is granted and requeued over and over. Later
	// records supersede earlier ones, so only the tail matters — but the
	// decoder has to wade through all of it.
	seq := 0
	requeues := make([]int, shards)
	const rounds = 16000
	for r := 0; r < rounds; r++ {
		s := r % shards
		seq++
		raw.Write(enc(coordRecord{Kind: recGrant, Shard: s, Worker: fmt.Sprintf("w%d", r%7),
			LeaseID: fmt.Sprintf("lease-%08d", seq), Seq: seq}))
		raw.Write(enc(coordRecord{Kind: recRequeue, Shard: s, Reason: "ttl expired"}))
		requeues[s]++
	}
	// Tail that defines the final table: shards 0 and 1 complete, shard 2
	// holds a live lease, shard 3 stays pending.
	for s := 0; s < 2; s++ {
		seq++
		raw.Write(enc(coordRecord{Kind: recGrant, Shard: s, Worker: "closer",
			LeaseID: fmt.Sprintf("lease-%08d", seq), Seq: seq}))
		raw.Write(enc(coordRecord{Kind: recComplete, Shard: s, Dir: filepath.Join(dir, fmt.Sprintf("shard-%03d", s))}))
	}
	seq++
	liveLease := fmt.Sprintf("lease-%08d", seq)
	raw.Write(enc(coordRecord{Kind: recGrant, Shard: 2, Worker: "survivor", LeaseID: liveLease, Seq: seq}))
	intact := raw.Len()
	// A torn final append: half a record, no newline.
	torn := enc(coordRecord{Kind: recGrant, Shard: 3, Worker: "victim", LeaseID: "lease-torn", Seq: seq + 1})
	raw.Write(torn[:len(torn)/2])

	if raw.Len() < 2<<20 {
		t.Fatalf("synthetic log only %d bytes; the test wants multi-MB", raw.Len())
	}
	path := filepath.Join(dir, coordLogName)
	if err := os.WriteFile(path, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(grid, CoordinatorOptions{ShardCount: shards, Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st := c.Status()
	if st.Done != 2 {
		t.Fatalf("done=%d, want 2", st.Done)
	}
	wantStates := []string{stateDone, stateDone, stateLeased, statePending}
	for i, want := range wantStates {
		if st.Shards[i].State != want {
			t.Errorf("shard %d state %q, want %q", i, st.Shards[i].State, want)
		}
	}
	if got := st.Shards[2].Worker; got != "survivor" {
		t.Errorf("shard 2 worker %q, want survivor", got)
	}
	if got := st.Shards[3].Retries; got != requeues[3] {
		t.Errorf("shard 3 retries %d, want %d", got, requeues[3])
	}
	c.mu.Lock()
	leasedShard, ok := c.byLease[liveLease]
	c.mu.Unlock()
	if !ok || leasedShard != 2 {
		t.Errorf("live lease %q maps to shard %d (ok=%v), want 2", liveLease, leasedShard, ok)
	}

	// The torn tail must be gone from disk so the next append lands on a
	// clean record boundary.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(intact) {
		t.Errorf("coord.log %d bytes after resume, want torn tail truncated to %d", fi.Size(), intact)
	}
}

// TestOpenCoordLogCorruptionRules pins the streaming decoder's damage
// semantics: corruption before the final record is fatal (the log is
// fsynced, so mid-file damage is not a crash artifact), a corrupt final
// record is dropped like a torn tail, and an absurdly long line is
// refused instead of buffered.
func TestOpenCoordLogCorruptionRules(t *testing.T) {
	enc := func(rec coordRecord) []byte {
		body, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		return recordlog.AppendFrame(nil, body)
	}
	header := enc(coordRecord{Kind: recHeader, Version: coordLogVersion, Fingerprint: "fp", ShardCount: 1})
	grant := enc(coordRecord{Kind: recGrant, Shard: 0, Worker: "w", LeaseID: "l1", Seq: 1})

	write := func(t *testing.T, chunks ...[]byte) string {
		t.Helper()
		dir := t.TempDir()
		var raw []byte
		for _, c := range chunks {
			raw = append(raw, c...)
		}
		if err := os.WriteFile(filepath.Join(dir, coordLogName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	replay := func(dir string) (int, error) {
		n := 0
		log, err := openCoordLog(chaos.Disk, dir, func(int, coordRecord) error { n++; return nil })
		if log != nil {
			log.Close()
		}
		return n, err
	}

	t.Run("mid-file corruption is fatal", func(t *testing.T) {
		bad := append([]byte(nil), grant...)
		bad[2] ^= 0xff // break the crc
		dir := write(t, header, bad, grant)
		if _, err := replay(dir); err == nil {
			t.Fatal("corrupt mid-file record must fail resume")
		}
	})
	t.Run("corrupt final record is dropped", func(t *testing.T) {
		bad := append([]byte(nil), grant...)
		bad[2] ^= 0xff
		dir := write(t, header, grant, bad)
		n, err := replay(dir)
		if err != nil || n != 2 {
			t.Fatalf("n=%d err=%v, want the 2 intact records and no error", n, err)
		}
	})
	t.Run("oversized line is refused", func(t *testing.T) {
		huge := append(bytes.Repeat([]byte{'a'}, maxCoordRecord+2), '\n')
		dir := write(t, header, huge, grant)
		if _, err := replay(dir); err == nil {
			t.Fatal("over-limit record must fail resume")
		}
	})
}
