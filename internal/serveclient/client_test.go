package serveclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"doda/internal/chaos"
	"doda/internal/rng"
	"doda/internal/serve"
)

// offSinkBatch generates k interactions among nodes 1..n-1 (never the
// sink), so a "waiting" instance stays running forever and the tests
// control exactly when state is read.
func offSinkBatch(n, k int, seed uint64) [][2]int {
	src := rng.New(seed)
	out := make([][2]int, k)
	for i := range out {
		u := 1 + int(src.Uint64()%uint64(n-1))
		v := 1 + int(src.Uint64()%uint64(n-1))
		for v == u {
			v = 1 + int(src.Uint64()%uint64(n-1))
		}
		out[i] = [2]int{u, v}
	}
	return out
}

func newServePair(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func waitCfg(name string, n int) serve.InstanceConfig {
	return serve.InstanceConfig{Name: name, N: n, Algorithm: "waiting", Agg: "min"}
}

// fastRetry keeps test retries snappy.
var fastRetry = RetryPolicy{Attempts: 10, Base: time.Millisecond, Max: 20 * time.Millisecond}

// TestClientChaosDifferential is the tentpole pin for the client
// library: a sweep of registrations and batched feeds pushed through a
// fault-injecting transport (connection resets, synthesized 5xx,
// delivered-but-dropped responses) must leave the server with engine
// state byte-identical to the same sweep over a clean wire. Runs with a
// tight live cap so retries also land on evicted instances.
func TestClientChaosDifferential(t *testing.T) {
	const (
		n         = 12
		instances = 3
		batches   = 10
		ops       = 8
	)
	seeds := []uint64{3, 11, 27}
	if testing.Short() {
		seeds = seeds[:1]
	}

	run := func(t *testing.T, hc *http.Client, seed uint64, opt serve.Options) map[string][]byte {
		t.Helper()
		_, ts := newServePair(t, opt)
		c := New(ts.URL, Options{HTTPClient: hc, Retry: fastRetry, Seed: seed})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()

		streams := make([]*Stream, instances)
		for i := range streams {
			name := fmt.Sprintf("p%d", i)
			if _, err := c.Register(ctx, waitCfg(name, n)); err != nil {
				t.Fatalf("register %s: %v", name, err)
			}
			st, err := c.Stream(ctx, name, 0)
			if err != nil {
				t.Fatalf("stream %s: %v", name, err)
			}
			streams[i] = st
		}
		for b := 0; b < batches; b++ {
			for i, st := range streams {
				for _, uv := range offSinkBatch(n, ops, uint64(i*1000+b)) {
					if err := st.Add(ctx, uv[0], uv[1]); err != nil {
						t.Fatalf("add p%d batch %d: %v", i, b, err)
					}
				}
				if err := st.Flush(ctx); err != nil {
					t.Fatalf("flush p%d batch %d: %v", i, b, err)
				}
			}
		}
		out := make(map[string][]byte)
		for i := range streams {
			name := fmt.Sprintf("p%d", i)
			est, err := c.State(ctx, name)
			if err != nil {
				t.Fatalf("state %s: %v", name, err)
			}
			bts, err := json.Marshal(est)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = bts
		}
		return out
	}

	want := run(t, &http.Client{Timeout: 10 * time.Second}, 0, serve.Options{})
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			hc := &http.Client{
				Timeout: 10 * time.Second,
				Transport: chaos.NewTransport(nil, chaos.TransportOptions{
					Seed:         seed,
					Reset:        0.12,
					Err5xx:       0.08,
					DropResponse: 0.12,
					MaxFaults:    40,
				}),
			}
			got := run(t, hc, seed, serve.Options{
				Dir:              t.TempDir(),
				MaxLiveInstances: 2,
				StallTimeout:     5 * time.Second,
			})
			for name, w := range want {
				if string(got[name]) != string(w) {
					t.Fatalf("seed %d: %s state diverged under chaos:\n got  %s\n want %s",
						seed, name, got[name], w)
				}
			}
		})
	}
}

// TestRegisterIdempotent: re-registering an existing instance resolves
// to its live status instead of failing — the dropped-ack retry path.
func TestRegisterIdempotent(t *testing.T) {
	_, ts := newServePair(t, serve.Options{})
	c := New(ts.URL, Options{Retry: fastRetry})
	ctx := context.Background()
	if _, err := c.Register(ctx, waitCfg("dup", 8)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Register(ctx, waitCfg("dup", 8))
	if err != nil {
		t.Fatalf("second register: %v", err)
	}
	if st.Name != "dup" || st.State != "running" {
		t.Fatalf("second register resolved to %+v", st)
	}
}

// TestTerminalErrorsDoNotRetry: a 404 is a deliberate answer; the
// client must return it on the first attempt, not burn the budget.
func TestTerminalErrorsDoNotRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no instance \"ghost\""}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{Retry: fastRetry})
	_, err := c.InstanceStatus(context.Background(), "ghost")
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("want *APIError 404, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("404 retried: %d requests", got)
	}
}

// TestBackpressureRetry: 429 with a Retry-After hint is flow control —
// the client waits and retries until the server accepts.
func TestBackpressureRetry(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 3 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"backpressure","retry_after_ms":1}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"ops":1}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{Retry: fastRetry})
	st := &Stream{c: c, name: "x", next: 1, batch: 4}
	if err := st.Feed(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(context.Background()); err != nil {
		t.Fatalf("flush through 429s: %v", err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("want 4 requests (3×429 + accept), got %d", got)
	}
	if st.Seq() != 2 {
		t.Fatalf("seq after ack = %d, want 2", st.Seq())
	}
}

// TestStreamResume: a fresh Stream picks up after the server's
// acknowledged prefix, so a restarted client process continues the
// sequence instead of colliding with it.
func TestStreamResume(t *testing.T) {
	_, ts := newServePair(t, serve.Options{})
	c := New(ts.URL, Options{Retry: fastRetry})
	ctx := context.Background()
	if _, err := c.Register(ctx, waitCfg("res", 8)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stream(ctx, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, uv := range offSinkBatch(8, 6, 42) {
		if err := st.Add(ctx, uv[0], uv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st2, err := c.Stream(ctx, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Seq() != st.Seq() {
		t.Fatalf("resumed stream at seq %d, want %d", st2.Seq(), st.Seq())
	}
}

// TestBackoffDeterministic: the client's RetryPolicy jitter is a pure
// function of (seed, call, attempt) and stays within [d/2, d).
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	for call := uint64(1); call <= 3; call++ {
		for k := 1; k <= 6; k++ {
			d1 := p.Backoff(7, call, k)
			d2 := p.Backoff(7, call, k)
			if d1 != d2 {
				t.Fatalf("backoff(7,%d,%d) not deterministic: %v vs %v", call, k, d1, d2)
			}
			full := p.Max
			if exp := p.Base << (k - 1); exp < p.Max {
				full = exp
			}
			if d1 < full/2 || d1 >= full {
				t.Fatalf("backoff(7,%d,%d)=%v outside [%v,%v)", call, k, d1, full/2, full)
			}
		}
	}
	if p.Backoff(7, 1, 1) == p.Backoff(8, 1, 1) {
		t.Fatal("different seeds should decorrelate jitter")
	}
}

// TestRemove: DELETE round-trips and the instance is gone.
func TestRemove(t *testing.T) {
	_, ts := newServePair(t, serve.Options{})
	c := New(ts.URL, Options{Retry: fastRetry})
	ctx := context.Background()
	if _, err := c.Register(ctx, waitCfg("gone", 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	_, err := c.InstanceStatus(ctx, "gone")
	ae, ok := err.(*APIError)
	if !ok || ae.Status != http.StatusNotFound {
		t.Fatalf("want 404 after remove, got %v", err)
	}
	sst, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sst.Total != 0 {
		t.Fatalf("server still reports %d instances", sst.Total)
	}
}
