package algorithms

import (
	"slices"
	"testing"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/knowledge"
	"doda/internal/rng"
	"doda/internal/seq"
)

// decideLog records the times at which the engine consulted Decide.
type decideLog struct {
	core.Algorithm
	decided []int
}

func (d *decideLog) Decide(env *core.Env, it seq.Interaction, t int) core.Decision {
	d.decided = append(d.decided, t)
	return d.Algorithm.Decide(env, it, t)
}

// observeLog is a decideLog for an Observer: it forwards Observe and
// counts its calls.
type observeLog struct {
	*decideLog
	observed int
}

func (o *observeLog) Observe(env *core.Env, it seq.Interaction, t int) {
	o.observed++
	o.Algorithm.(core.Observer).Observe(env, it, t)
}

type eventLog struct{ events []core.Event }

func (l *eventLog) OnEvent(ev core.Event) { l.events = append(l.events, ev) }
func (l *eventLog) OnDone(core.Result)    {}

// runLogged plays s, seq.Uniform's sequence for seed, through one engine
// path, with or without an EventSink: "batched" drains an oblivious
// adversary, "scalar" hides its NextBatch, "feed" pushes each
// interaction through Begin/Feed/Finish, and "screened" plays
// adversary.Uniform from seed, which draws s and goes on past its end,
// so its horizon stops at s's length.
func runLogged(t *testing.T, path string, alg core.Algorithm, s *seq.Sequence, seed uint64, know *knowledge.Bundle, horizon int, events *eventLog) core.Result {
	t.Helper()
	if path == "screened" {
		horizon = min(horizon, s.Len())
	}
	cfg := core.Config{N: s.N(), MaxInteractions: horizon, Know: know, VerifyAggregate: true}
	if events != nil {
		cfg.Events = events
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res core.Result
	switch path {
	case "feed":
		if err := eng.Begin(alg); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.Len(); i++ {
			if done, err := eng.Feed(s.At(i)); err != nil {
				t.Fatal(err)
			} else if done {
				break
			}
		}
		res, err = eng.Finish()
	case "screened":
		var adv core.Adversary
		if adv, err = adversary.NewUniform("uniform", s.N(), rng.New(seed)); err != nil {
			t.Fatal(err)
		}
		res, err = eng.Run(alg, adv)
	default:
		var adv core.Adversary
		if adv, err = adversary.NewOblivious("seq", s); err != nil {
			t.Fatal(err)
		}
		if path == "scalar" {
			adv = struct{ core.Adversary }{adv}
		}
		res, err = eng.Run(alg, adv)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult compares every field of two Results but the adversary's
// name, and the sink's origins by membership.
func sameResult(a, b core.Result) bool {
	originsA, originsB := []int(nil), []int(nil)
	if a.SinkValue.Origins != nil {
		originsA = a.SinkValue.Origins.Members()
	}
	if b.SinkValue.Origins != nil {
		originsB = b.SinkValue.Origins.Members()
	}
	a.SinkValue.Origins, b.SinkValue.Origins = nil, nil
	a.Adversary, b.Adversary = "", ""
	return a == b && slices.Equal(originsA, originsB)
}

// TestIdleSkipKeepsResults checks the engine's skip of idle
// interactions, those whose endpoints do not both own data, for every
// sweep algorithm plus FutureOptimal, on the batched, scalar, push and
// screened paths; the screened path skips them at the source, and an
// Observer's screened run drains NextBatch. An attached EventSink makes
// the engine play every interaction through step, so a run with one is
// the reference: the Result without one must be field-identical, Decide
// must run exactly at the events with BothOwned set, and an Observer
// must see every interaction either way.
func TestIdleSkipKeepsResults(t *testing.T) {
	idle, terminated := 0, 0
	for _, tc := range []struct {
		n, length int
		seed      uint64
	}{{10, 3000, 1}, {24, 12000, 2}, {24, 900, 3}} {
		s, err := seq.Uniform(tc.n, tc.length, rng.New(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		cap := s.Len() + 1
		algs := []struct {
			name string
			make func() core.Algorithm
			know *knowledge.Bundle
		}{
			{"waiting", func() core.Algorithm { return Waiting{} }, nil},
			{"gathering", func() core.Algorithm { return NewGathering() }, nil},
			{"waiting-greedy", func() core.Algorithm { return WaitingGreedy{Tau: TauStar(tc.n)} },
				mustBundle(t, knowledge.WithMeetTime(s, 0, cap))},
			{"full-knowledge", func() core.Algorithm { return NewFullKnowledge(cap) },
				mustBundle(t, knowledge.WithFullSequence(s))},
			{"future-optimal", func() core.Algorithm { return NewFutureOptimal(cap) },
				mustBundle(t, knowledge.WithFutures(s))},
		}
		for _, a := range algs {
			for _, horizon := range []int{cap, s.Len() / 3} {
				var first core.Result
				for _, path := range []string{"batched", "scalar", "feed", "screened"} {
					var runs [2]core.Result
					var logs [2]*decideLog
					var observed [2]int
					events := &eventLog{}
					for i, sink := range []*eventLog{events, nil} {
						alg := a.make()
						logs[i] = &decideLog{Algorithm: alg}
						var wrapped core.Algorithm = logs[i]
						if _, ok := alg.(core.Observer); ok {
							wrapped = &observeLog{decideLog: logs[i]}
						}
						runs[i] = runLogged(t, path, wrapped, s, tc.seed, a.know, horizon, sink)
						if o, ok := wrapped.(*observeLog); ok {
							observed[i] = o.observed
						}
					}
					where := a.name + " on " + path
					if !sameResult(runs[0], runs[1]) {
						t.Fatalf("n=%d seed=%d horizon=%d %s: with a sink %+v, without %+v", tc.n, tc.seed, horizon, where, runs[0], runs[1])
					}
					var both []int
					for _, ev := range events.events {
						if ev.BothOwned {
							both = append(both, ev.T)
						}
					}
					idle += runs[0].Interactions - len(both)
					if runs[0].Terminated {
						terminated++
					}
					if len(events.events) != runs[0].Interactions {
						t.Fatalf("%s: %d events for %d interactions", where, len(events.events), runs[0].Interactions)
					}
					for i := range logs {
						if !slices.Equal(logs[i].decided, both) {
							t.Fatalf("n=%d seed=%d %s (sink %v): Decide ran at %d times, %d events had both owners",
								tc.n, tc.seed, where, i == 0, len(logs[i].decided), len(both))
						}
					}
					if _, ok := logs[0].Algorithm.(core.Observer); ok {
						for i, o := range observed {
							if o != runs[i].Interactions {
								t.Fatalf("%s (sink %v): Observe ran %d times for %d interactions", where, i == 0, o, runs[i].Interactions)
							}
						}
					}
					if path == "batched" {
						first = runs[0]
					} else if !sameResult(first, runs[0]) {
						t.Fatalf("%s: %+v, batched path %+v", where, runs[0], first)
					}
				}
			}
		}
	}
	if idle == 0 || terminated == 0 {
		t.Errorf("%d idle interactions and %d terminated runs: the test shows nothing", idle, terminated)
	}
}
