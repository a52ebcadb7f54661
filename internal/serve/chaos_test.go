package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"doda/internal/chaos"
	"doda/internal/rng"
	"doda/internal/seq"
)

// chaosWorkload is the scripted batch sequence both the clean and the
// faulted runs feed: uniform interactions over all nodes (sink
// included), so the waiting instance makes real progress and may even
// terminate — both runs must land in the same place regardless.
func chaosWorkload(n, batches, perBatch int, seed uint64) [][]seq.Interaction {
	gen := seq.UniformGen(n, rng.New(seed))
	out := make([][]seq.Interaction, batches)
	t := 0
	for i := range out {
		b := make([]seq.Interaction, perBatch)
		for k := range b {
			b[k] = gen(t)
			t++
		}
		out[i] = b
	}
	return out
}

// feedAll ingests the workload with explicit sequence stamps, acking
// each batch before the next, and returns the final EngineState JSON.
// ErrInstanceDone (the run terminated mid-workload) ends the feed — it
// happens at the same batch in every run because Feed is deterministic.
func feedAll(ctx context.Context, t *testing.T, inst *Instance, workload [][]seq.Interaction) []byte {
	t.Helper()
	for i, batch := range workload {
		h, err := inst.Ingest(ctx, batch, uint64(i+1))
		if errors.Is(err, ErrInstanceDone) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil && !errors.Is(err, ErrInstanceDone) {
			t.Fatal(err)
		}
	}
	st, err := inst.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cleanFinalState runs the workload on a fault-free ephemeral server.
func cleanFinalState(t *testing.T, cfg InstanceConfig, workload [][]seq.Interaction) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := newTestServer(t, Options{})
	inst := mustRegister(t, s, cfg)
	return feedAll(ctx, t, inst, workload)
}

// TestChaosFSRecoveryByteIdentical is the tentpole robustness assertion:
// a server suffering injected disk faults (short writes, failed fsyncs,
// failed and torn renames) plus repeated abrupt restarts — both
// scheduled and forced by simulated power cuts — recovers its instance
// to a state byte-identical to a run that saw no faults at all.
func TestChaosFSRecoveryByteIdentical(t *testing.T) {
	cfg := InstanceConfig{Name: "w", N: 32, Algorithm: "waiting", Agg: "min"}
	workload := chaosWorkload(32, 50, 8, 1234)
	want := cleanFinalState(t, cfg, workload)

	for _, seed := range []uint64{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			ffs := chaos.NewFaultFS(nil, chaos.FSOptions{
				Seed:       seed,
				WriteFail:  0.08,
				SyncFail:   0.08,
				RenameFail: 0.08,
				TornRename: 0.05,
				MaxFaults:  30,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			open := func() *Server {
				var lastErr error
				for {
					if err := ctx.Err(); err != nil {
						t.Fatalf("could not reopen server: %v (last open error: %v)", err, lastErr)
					}
					ffs.Revive()
					s, err := NewServer(Options{Dir: dir, FS: ffs, SnapshotEvery: 16})
					if err == nil {
						return s
					}
					lastErr = err
				}
			}
			s := open()
			defer func() { s.Close() }()

			// The registration itself must survive injected faults.
			for {
				_, err := s.Register(cfg)
				if err == nil {
					break
				}
				if _, ok := s.Get(cfg.Name); ok {
					break
				}
				s.Close()
				s = open()
			}

			restart := func() {
				s.Close()
				s = open()
			}

			sinceRestart := 0
			for i := 0; i < len(workload); {
				if ctx.Err() != nil {
					t.Fatal("timed out feeding workload")
				}
				// Forced abrupt restart every few batches: the crash-replay
				// path runs even on seeds whose faults never latch a power
				// cut.
				if sinceRestart >= 9 {
					restart()
					sinceRestart = 0
				}
				inst, ok := s.Get(cfg.Name)
				if !ok {
					// The registration was acknowledged, so a recovered
					// server that lacks the instance has discarded durable
					// state — exactly the bug this test exists to catch.
					t.Fatalf("batch %d: acknowledged instance missing after restart", i)
				}
				h, err := inst.TryIngest(workload[i], uint64(i+1))
				if err == nil {
					err = h.Wait(ctx)
				}
				switch {
				case err == nil, errors.Is(err, ErrInstanceDone):
					i++
					sinceRestart++
					if errors.Is(err, ErrInstanceDone) {
						i = len(workload)
					}
				case errors.Is(err, ErrBackpressure), errors.Is(err, ErrWAL):
					// Transient: the worker drains or rewrites; retry.
					time.Sleep(time.Millisecond)
				case errors.Is(err, ErrInstanceFailed), errors.Is(err, ErrInstanceClosed),
					errors.Is(err, chaos.ErrCrashed):
					restart()
					sinceRestart = 0
				default:
					t.Fatalf("batch %d: unexpected error: %v", i, err)
				}
			}

			// One last crash/recover cycle, then read the final state.
			restart()
			inst, ok := s.Get(cfg.Name)
			if !ok {
				t.Fatal("instance lost after final restart")
			}
			st, err := inst.State(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("state after %d injected faults diverged from fault-free run:\n got %s\nwant %s",
					ffs.Faults(), got, want)
			}
			if ffs.Faults() == 0 {
				t.Fatal("schedule injected no faults — the run proved nothing")
			}
		})
	}
}

// TestChaosTransportExactlyOnce drives the HTTP API through an unreliable
// client transport — connection resets, injected 503s, and delivered-but-
// lost responses (the case that makes blind retries dangerous) — and
// asserts sequence-stamped retries keep ingestion exactly-once: the final
// state matches a fault-free run byte for byte.
func TestChaosTransportExactlyOnce(t *testing.T) {
	cfg := InstanceConfig{Name: "w", N: 24, Algorithm: "waiting", Agg: "min"}
	workload := chaosWorkload(24, 40, 6, 77)
	want := cleanFinalState(t, cfg, workload)

	srv := newTestServer(t, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr := chaos.NewTransport(nil, chaos.TransportOptions{
		Seed:         5,
		Reset:        0.15,
		Err5xx:       0.10,
		DropResponse: 0.15,
		MaxFaults:    60,
	})
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	deadline := time.Now().Add(60 * time.Second)

	// do retries one request until a terminal status arrives.
	do := func(method, path string, body func() io.Reader) (int, []byte) {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("%s %s: retries exhausted", method, path)
			}
			req, err := http.NewRequest(method, ts.URL+path, body())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				continue // injected reset or dropped response: retry
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				continue
			}
			switch resp.StatusCode {
			case http.StatusServiceUnavailable, http.StatusTooManyRequests:
				continue // injected 503 or genuine backpressure: retry
			}
			return resp.StatusCode, raw
		}
	}

	cfgJSON, _ := json.Marshal(cfg)
	code, body := do("POST", "/v1/instances", func() io.Reader { return bytes.NewReader(cfgJSON) })
	// A lost response can make the retried register see "already exists".
	if code != http.StatusCreated && !(code == http.StatusBadRequest && strings.Contains(string(body), "already exists")) {
		t.Fatalf("register: %d %s", code, body)
	}

	for i, batch := range workload {
		var sb strings.Builder
		for _, it := range batch {
			fmt.Fprintf(&sb, "{\"u\":%d,\"v\":%d}\n", it.U, it.V)
		}
		path := fmt.Sprintf("/v1/instances/w/ingest?seq=%d&wait=1", i+1)
		code, body := do("POST", path, func() io.Reader { return strings.NewReader(sb.String()) })
		if code == http.StatusConflict {
			break // instance finished mid-workload
		}
		if code != http.StatusAccepted {
			t.Fatalf("ingest %d: %d %s", i+1, code, body)
		}
	}

	code, got := do("GET", "/v1/instances/w/state", func() io.Reader { return nil })
	if code != http.StatusOK {
		t.Fatalf("state: %d %s", code, got)
	}
	// The endpoint appends the encoder's newline; normalise both sides.
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("state after %d injected transport faults diverged:\n got %s\nwant %s", tr.Faults(), got, want)
	}
	if tr.Faults() == 0 {
		t.Fatal("schedule injected no transport faults — the run proved nothing")
	}
}

// TestWALTornTailDropsOnlyUnacked crashes "mid-append" by tearing bytes
// off the journal tail and asserts recovery keeps every acknowledged
// batch and repairs the file.
func TestWALTornTailDropsOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s, err := NewServer(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Register(InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		h, err := inst.Ingest(ctx, offSinkBatch(8, 4, uint64(i)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want, err := inst.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	s.Close()

	// Tear the last 10 bytes off the journal — a power cut mid-append.
	walPath := filepath.Join(dir, "w", generations.Name(0))
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{Dir: dir})
	inst2, ok := s2.Get("w")
	if !ok {
		t.Fatal("instance not recovered")
	}
	st, err := inst2.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Batches 1 and 2 were acked and must survive; batch 3's record was
	// torn, so the recovered state is the state after batch 2 — which is
	// exactly what a client that never got batch 3's ack must assume.
	if st.T != 8 {
		t.Fatalf("recovered t = %d, want 8 (batches 1-2)", st.T)
	}
	// Re-sending batch 3 (the retry a real client performs) converges to
	// the original state.
	h, err := inst2.Ingest(ctx, offSinkBatch(8, 4, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := inst2.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("retried state diverged:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// The torn file was repaired: it now parses clean.
	if _, repaired, err := parseGen(chaos.Disk, filepath.Join(dir, "w"), 0); err != nil || repaired {
		t.Fatalf("parseGen after repair: repaired=%v err=%v", repaired, err)
	}
}

// TestWALGenerationFallback damages the newest generation beyond its
// header+state prefix and asserts recovery falls back to the previous
// one — the invariant that rotation deletes old generations only after
// the new one is durable makes that always possible.
func TestWALGenerationFallback(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// SnapshotEvery=4 forces a rotation per batch.
	s, err := NewServer(Options{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Register(InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		h, err := inst.Ingest(ctx, offSinkBatch(8, 4, uint64(i)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reconstruct a mid-rotation crash: the previous generation is still
	// present, the new one tore before its state record became durable.
	idir := filepath.Join(dir, "w")
	names, err := generations.List(nil, idir)
	if err != nil || len(names) != 1 {
		t.Fatalf("gens = %v, err = %v", names, err)
	}
	curN := names[0]
	raw, err := os.ReadFile(filepath.Join(idir, generations.Name(curN)))
	if err != nil {
		t.Fatal(err)
	}
	// The torn successor: only half the header line made it.
	nl := bytes.IndexByte(raw, '\n')
	if err := os.WriteFile(filepath.Join(idir, generations.Name(curN+1)), raw[:nl/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{Dir: dir, SnapshotEvery: 4})
	inst2, ok := s2.Get("w")
	if !ok {
		t.Fatal("instance not recovered")
	}
	st, err := inst2.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.T != 8 {
		t.Fatalf("fallback state t = %d, want 8", st.T)
	}
	// The damaged generation was swept.
	names, err = generations.List(nil, idir)
	if err != nil || len(names) != 1 {
		t.Fatalf("gens after fallback = %v, err = %v", names, err)
	}
}

// TestWALCorruptGenerationFailsLoudly flips one bit in the header record
// of an instance's only generation. That is corruption, not a publish cut
// short, so a restart must fail naming the instance and leave its
// directory in place: sweeping it would delete an acknowledged instance.
func TestWALCorruptGenerationFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// SnapshotEvery=4 rotates after each batch: two acked batches leave
	// generation 2 as the only file.
	s, err := NewServer(Options{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Register(InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		h, err := inst.Ingest(ctx, offSinkBatch(8, 4, uint64(i)), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, "w", generations.Name(2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 1 // inside the header record's JSON body
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(Options{Dir: dir, SnapshotEvery: 4})
	if err == nil {
		s2.Close()
		t.Fatal("restart over a corrupt generation succeeded")
	}
	if !strings.Contains(err.Error(), "recover w:") {
		t.Fatalf("restart error %q does not name instance w", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("corrupt generation was not left in place: %v", err)
	}
}

// TestWALAppendFailureWedgesThenRecovers exhausts one injected short
// write and asserts the ErrWAL wedge clears automatically: the worker
// rewrites the log as a fresh generation and admission resumes.
func TestWALAppendFailureWedgesThenRecovers(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Register on the clean disk, then reopen through a schedule whose
	// single short-write fault lands on the first ingest append.
	s0, err := NewServer(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s0.Register(InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"}); err != nil {
		t.Fatal(err)
	}
	s0.Close()
	ffs := chaos.NewFaultFS(nil, chaos.FSOptions{Seed: 1, WriteFail: 1, MaxFaults: 1})
	s, err := NewServer(Options{Dir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inst, ok := s.Get("w")
	if !ok {
		t.Fatal("instance not recovered")
	}
	batch := offSinkBatch(8, 4, 1)
	// The single fault budget fires on this append: wedged, not admitted.
	if _, err := inst.TryIngest(batch, 1); !errors.Is(err, ErrWAL) {
		t.Fatalf("first ingest err = %v, want ErrWAL", err)
	}
	// The blocking path rides out the rewrite and succeeds.
	h, err := inst.Ingest(ctx, batch, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Faults(); got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
	if st := inst.Status(); st.State != "running" || st.LastSeq != 1 {
		t.Fatalf("status = %+v", st)
	}
}
