package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"doda/internal/core"
	"doda/internal/offline"
	"doda/internal/rng"
	"doda/internal/seq"
)

// TestServedDurationNeverBeatsOfflineOptimum carries the paper's offline
// bound (§2.3, opt(0)) through the server, as
// sweep.TestDurationNeverBeatsOfflineOptimum checks it for the sweep:
// no instance the server runs aggregates before the optimal offline
// convergecast on the interactions it was fed completes. Waiting and
// gathering instances get deterministic uniform traffic, which touches
// the sink, over the HTTP handler in stamped, waited batches. Every
// other batch is written as valid JSON the compact fast path declines,
// so both decoders feed every instance. Four kinds of server run the
// same workloads: ephemeral; durable, rotating its WALs every few
// batches; evicting, with fewer live slots than instances; and durable
// but closed mid-stream and reopened on its directory. The client keeps
// each instance's sequence, since the WAL drops it at rotation.
func TestServedDurationNeverBeatsOfflineOptimum(t *testing.T) {
	const (
		n          = 10
		batch      = 8
		maxBatches = 200
	)
	type instance struct {
		name, alg string
		seed      uint64
	}
	var insts []instance
	for _, alg := range []string{"waiting", "gathering"} {
		for seed := uint64(1); seed <= 3; seed++ {
			insts = append(insts, instance{fmt.Sprintf("%s-%d", alg, seed), alg, seed})
		}
	}
	for _, kind := range []struct {
		name string
		opt  Options
		// restartAt closes the server after that many batches and
		// reopens it on the same directory (0: never).
		restartAt int
	}{
		{"ephemeral", Options{}, 0},
		{"durable", Options{SnapshotEvery: 3 * batch}, 0},
		{"evicting", Options{MaxLiveInstances: 2}, 0},
		{"restarted", Options{SnapshotEvery: 3 * batch}, 3},
	} {
		t.Run(kind.name, func(t *testing.T) {
			opt := kind.opt
			if kind.name != "ephemeral" {
				opt.Dir = t.TempDir()
			}
			s := newTestServer(t, opt)
			for _, in := range insts {
				body := fmt.Sprintf(`{"name":%q,"n":%d,"algorithm":%q,"agg":"sum"}`, in.name, n, in.alg)
				if rec := post(s, "/v1/instances", []byte(body)); rec.Code != http.StatusCreated {
					t.Fatalf("register %s: %d %s", in.name, rec.Code, rec.Body)
				}
			}
			fed := make([][]seq.Interaction, len(insts))
			gens := make([]func(int) seq.Interaction, len(insts))
			running := make([]bool, len(insts))
			for i, in := range insts {
				gens[i] = seq.UniformGen(n, rng.New(in.seed))
				running[i] = true
			}
			restartedRunning := 0
			for b := 1; b <= maxBatches; b++ {
				if kind.restartAt > 0 && b == kind.restartAt+1 {
					for _, r := range running {
						if r {
							restartedRunning++
						}
					}
					s.Close()
					s = newTestServer(t, opt)
				}
				busy := false
				for i, in := range insts {
					if !running[i] {
						continue
					}
					busy = true
					var body []byte
					for k := 0; k < batch; k++ {
						x := gens[i](len(fed[i]))
						fed[i] = append(fed[i], x)
						if b%2 == 1 {
							body = fmt.Appendf(body, "{\"u\":%d,\"v\":%d}\n", x.U, x.V)
						} else {
							body = fmt.Appendf(body, "{\"v\": %d, \"u\": %d}\n", x.V, x.U)
						}
					}
					rec := post(s, fmt.Sprintf("/v1/instances/%s/ingest?seq=%d&wait=1", in.name, b), body)
					switch rec.Code {
					case http.StatusAccepted:
					case http.StatusConflict:
						// The instance finished in this batch or before it.
						running[i] = false
					default:
						t.Fatalf("%s batch %d: %d %s", in.name, b, rec.Code, rec.Body)
					}
				}
				if kind.name == "evicting" && b == 1 && s.Status().Evicted == 0 {
					t.Fatal("no instance evicted under a live cap below the instance count")
				}
				if !busy {
					break
				}
			}
			if kind.restartAt > 0 && restartedRunning == 0 {
				t.Fatal("every instance finished before the restart")
			}
			terminated := 0
			for i, in := range insts {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instances/"+in.name+"/state", nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s state: %d %s", in.name, rec.Code, rec.Body)
				}
				var st core.EngineState
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				if !st.Result.Terminated {
					continue
				}
				terminated++
				view, err := seq.NewSequence(n, fed[i])
				if err != nil {
					t.Fatal(err)
				}
				d := st.Result.Duration
				best, ok := offline.Opt(view, 0, 0, d+1)
				switch {
				case !ok:
					t.Errorf("%s: terminated at %d but no offline convergecast completes by then", in.name, d)
				case best > d:
					t.Errorf("%s: duration %d beats the offline optimum %d", in.name, d, best)
				}
			}
			if terminated == 0 {
				t.Fatalf("vacuous: no instance terminated within %d batches", maxBatches)
			}
			t.Logf("%d of %d instances terminated", terminated, len(insts))
		})
	}
}
