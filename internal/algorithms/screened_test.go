package algorithms

import (
	"fmt"
	"testing"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/seq"
)

// countEvents is an EventSink that only counts, so a reference run over
// millions of interactions keeps no log.
type countEvents struct{ n int }

func (c *countEvents) OnEvent(core.Event) { c.n++ }
func (*countEvents) OnDone(core.Result)   {}

// screenedCase builds, for one (n, seed, horizon), a fresh algorithm and
// the knowledge it needs, over the sequence adversary.Uniform draws from
// seed.
type screenedCase struct {
	name string
	make func(n int, seed uint64, horizon int) (core.Algorithm, *knowledge.Bundle)
}

var screenedCases = []screenedCase{
	{"waiting", func(int, uint64, int) (core.Algorithm, *knowledge.Bundle) { return Waiting{}, nil }},
	{"gathering", func(int, uint64, int) (core.Algorithm, *knowledge.Bundle) { return NewGathering(), nil }},
	{"waiting-greedy", func(n int, seed uint64, horizon int) (core.Algorithm, *knowledge.Bundle) {
		know, err := knowledge.NewBundle(knowledge.WithMeetTimeGen(n, seq.UniformGen(n, rng.New(seed)), 0, horizon))
		if err != nil {
			panic(err)
		}
		return WaitingGreedy{Tau: TauStar(n)}, know
	}},
	{"full-knowledge", func(n int, seed uint64, horizon int) (core.Algorithm, *knowledge.Bundle) {
		st, err := seq.NewStream(n, seq.UniformGen(n, rng.New(seed)))
		if err != nil {
			panic(err)
		}
		know, err := knowledge.NewBundle(knowledge.WithFullSequence(st))
		if err != nil {
			panic(err)
		}
		return NewFullKnowledge(horizon), know
	}},
	{"future-optimal", func(n int, seed uint64, horizon int) (core.Algorithm, *knowledge.Bundle) {
		s, err := seq.Uniform(n, horizon, rng.New(seed))
		if err != nil {
			panic(err)
		}
		know, err := knowledge.NewBundle(knowledge.WithFutures(s))
		if err != nil {
			panic(err)
		}
		return NewFutureOptimal(horizon), know
	}},
}

// screenedCap is the interaction cap of a full run: the sweep's default
// for the algorithms that need no sequence, a shorter horizon for those
// that keep one, which end in Θ(n log n) interactions (under 20n at
// these sizes).
func screenedCap(name string, n int) int {
	switch name {
	case "full-knowledge", "future-optimal":
		return 30*n + 4000
	default:
		return 400*n*n + 4000
	}
}

// TestScreenedPathKeepsResults plays each sweep algorithm and
// FutureOptimal against adversary.Uniform on four paths: screened (the
// adversary as it is), batched (NextOwned hidden), scalar (NextBatch
// hidden too) and with an EventSink attached, which makes the engine
// play every interaction. Every Result field must agree, for runs that
// end and runs a cap ends half-way, on both sides of the pair-table
// bound. FutureOptimal is an Observer, so its screened run drains
// NextBatch.
func TestScreenedPathKeepsResults(t *testing.T) {
	sizes := []int{2, 3, 63, 64, 65, 512, 1024, 1025}
	if testing.Short() {
		sizes = []int{2, 3, 63, 64, 65}
	}
	terminated := 0
	for _, n := range sizes {
		seeds := []uint64{1, 2, 3}
		if n >= 512 {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			for _, c := range screenedCases {
				full := screenedCap(c.name, n)
				var ref core.Result
				for _, cap := range []int{full, 0} {
					if cap == 0 {
						// Half-way through the full run.
						if cap = ref.Interactions / 2; cap == 0 {
							continue
						}
					}
					var results [4]core.Result
					for i, path := range []string{"sink", "screened", "batched", "scalar"} {
						alg, know := c.make(n, seed, full)
						adv, err := adversary.NewUniform("uniform", n, rng.New(seed))
						if err != nil {
							t.Fatal(err)
						}
						cfg := core.Config{N: n, MaxInteractions: cap, Know: know, VerifyAggregate: true}
						var sink *countEvents
						var a core.Adversary = adv
						switch path {
						case "sink":
							sink = &countEvents{}
							cfg.Events = sink
						case "batched":
							a = struct{ core.BatchAdversary }{adv}
						case "scalar":
							a = struct{ core.Adversary }{adv}
						}
						res, err := core.RunOnce(cfg, alg, a)
						if err != nil {
							t.Fatalf("n=%d seed=%d %s cap=%d %s: %v", n, seed, c.name, cap, path, err)
						}
						if sink != nil && sink.n != res.Interactions {
							t.Fatalf("n=%d %s: %d events for %d interactions", n, c.name, sink.n, res.Interactions)
						}
						results[i] = res
					}
					for i, path := range []string{"screened", "batched", "scalar"} {
						if !sameResult(results[0], results[i+1]) {
							t.Fatalf("n=%d seed=%d %s cap=%d: %s path %+v, with a sink %+v",
								n, seed, c.name, cap, path, results[i+1], results[0])
						}
					}
					if cap == full {
						ref = results[0]
						if ref.Terminated {
							terminated++
						}
					}
				}
			}
		}
	}
	if terminated == 0 {
		t.Error("no run terminated: the test shows nothing")
	}
}

// TestScreenedAdversaryReusedAcrossRuns plays one adversary.Uniform
// through several runs of one engine, re-armed by Reset, some ended by
// the cap: a screened run consumes exactly the interactions it counts,
// so each run's Result must equal the scalar path's over its own reused
// adversary, and the two sources must end in the same state. The set of
// owner pairs is rebuilt when a new run brings every node back.
func TestScreenedAdversaryReusedAcrossRuns(t *testing.T) {
	for _, n := range []int{3, 64, 512, 1025} {
		for _, alg := range []core.Algorithm{Waiting{}, NewGathering()} {
			srcs := [2]*rng.Source{rng.New(uint64(n)), rng.New(uint64(n))}
			var advs [2]core.Adversary
			for i := range advs {
				u, err := adversary.NewUniform("uniform", n, srcs[i])
				if err != nil {
					t.Fatal(err)
				}
				advs[i] = u
			}
			advs[1] = struct{ core.Adversary }{advs[1]}
			var engs [2]*core.Engine
			for run, cap := range []int{400*n*n + 4000, n * n / 4, 400*n*n + 4000, 5, 400*n*n + 4000} {
				var results [2]core.Result
				for i := range engs {
					cfg := core.Config{N: n, MaxInteractions: cap, VerifyAggregate: true}
					var err error
					if engs[i] == nil {
						engs[i], err = core.NewEngine(cfg)
					} else {
						err = engs[i].Reset(cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					if results[i], err = engs[i].Run(alg, advs[i]); err != nil {
						t.Fatal(err)
					}
				}
				where := fmt.Sprintf("n=%d %s run %d (cap %d)", n, alg.Name(), run, cap)
				if !sameResult(results[0], results[1]) {
					t.Fatalf("%s: screened %+v, scalar %+v", where, results[0], results[1])
				}
				if srcs[0].State() != srcs[1].State() {
					t.Fatalf("%s: the screened run left its source elsewhere", where)
				}
			}
		}
	}
}
