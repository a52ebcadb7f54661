package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"doda/internal/rng"
	"doda/internal/seq"
)

// greedyAlg funnels data toward the smaller endpoint — an oblivious
// algorithm that terminates quickly under uniform interactions, so
// differential runs exercise the full lifecycle.
type greedyAlg struct{}

func (greedyAlg) Name() string     { return "greedy-min" }
func (greedyAlg) Oblivious() bool  { return true }
func (greedyAlg) Setup(*Env) error { return nil }
func (greedyAlg) Decide(_ *Env, it seq.Interaction, _ int) Decision {
	return FirstReceives
}

// funcAdv adapts a generator function into an Adversary.
type funcAdv struct {
	gen func(t int) seq.Interaction
	max int
}

func (funcAdv) Name() string { return "gen" }
func (a funcAdv) Next(t int, _ ExecView) (seq.Interaction, bool) {
	if t >= a.max {
		return seq.Interaction{}, false
	}
	return a.gen(t), true
}

func uniformSeq(n, k int, seed uint64) []seq.Interaction {
	gen := seq.UniformGen(n, rng.New(seed))
	its := make([]seq.Interaction, k)
	for t := range its {
		its[t] = gen(t)
	}
	return its
}

// normalize drops fields that legitimately differ between pull and push
// mode (Adversary name) so the rest can be compared wholesale.
func normalize(r Result) Result {
	r.Adversary = ""
	return r
}

func TestFeedMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		prov ProvenanceMode
		n    int
		seed uint64
	}{
		{"full-n8", ProvenanceFull, 8, 1},
		{"full-n33", ProvenanceFull, 33, 7},
		{"count-n33", ProvenanceCount, 33, 7},
		{"off-n16", ProvenanceOff, 16, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			its := uniformSeq(tc.n, 4*tc.n*tc.n, tc.seed)
			cfg := Config{
				N:               tc.n,
				MaxInteractions: len(its),
				Provenance:      tc.prov,
				VerifyAggregate: tc.prov != ProvenanceOff,
			}

			gen := func(t int) seq.Interaction { return its[t] }
			want, err := RunOnce(cfg, greedyAlg{}, funcAdv{gen: gen, max: len(its)})
			if err != nil {
				t.Fatalf("pull run: %v", err)
			}

			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Begin(greedyAlg{}); err != nil {
				t.Fatal(err)
			}
			for _, it := range its {
				done, err := e.Feed(it)
				if err != nil {
					t.Fatalf("feed: %v", err)
				}
				if done {
					break
				}
			}
			got, err := e.Finish()
			if err != nil {
				t.Fatalf("finish: %v", err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Errorf("push result %+v\n  want %+v", got, want)
			}
		})
	}
}

func TestFeedAfterDoneIsIgnored(t *testing.T) {
	cfg := Config{N: 3, MaxInteractions: 10, VerifyAggregate: true}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(greedyAlg{}); err != nil {
		t.Fatal(err)
	}
	// 2->1, then 1->0 terminates.
	for _, it := range []seq.Interaction{{U: 1, V: 2}, {U: 0, V: 1}} {
		if _, err := e.Feed(it); err != nil {
			t.Fatal(err)
		}
	}
	if !e.StreamDone() {
		t.Fatal("run should be done")
	}
	done, err := e.Feed(seq.Interaction{U: 0, V: 2})
	if !done || err != nil {
		t.Fatalf("post-done Feed = (%v, %v), want (true, nil)", done, err)
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Interactions != 2 {
		t.Errorf("res = %+v", res)
	}
	// Finish is idempotent.
	res2, err := e.Finish()
	if err != nil || !reflect.DeepEqual(res, res2) {
		t.Errorf("second Finish = %+v, %v", res2, err)
	}
}

func TestFeedHonorsMaxInteractions(t *testing.T) {
	cfg := Config{N: 4, MaxInteractions: 3}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(scriptAlg{}); err != nil { // never transfers
		t.Fatal(err)
	}
	var done bool
	for i := 0; i < 5; i++ {
		done, err = e.Feed(seq.Interaction{U: 0, V: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("horizon should end the run")
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactions != 3 || res.Terminated {
		t.Errorf("res = %+v", res)
	}
}

func TestFeedRejectsInvalidInteractions(t *testing.T) {
	for _, it := range []seq.Interaction{{U: 2, V: 2}, {U: -1, V: 1}, {U: 0, V: 99}} {
		e, err := NewEngine(Config{N: 4, MaxInteractions: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Begin(greedyAlg{}); err != nil {
			t.Fatal(err)
		}
		done, err := e.Feed(it)
		if !done || err == nil {
			t.Errorf("Feed(%v) = (%v, %v), want done with error", it, done, err)
		}
	}
}

func TestBeginRequiresFreshEngine(t *testing.T) {
	e, err := NewEngine(Config{N: 3, MaxInteractions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(greedyAlg{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(greedyAlg{}); err == nil {
		t.Fatal("second Begin should fail")
	}
	if err := e.Reset(Config{N: 3, MaxInteractions: 5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(greedyAlg{}); err != nil {
		t.Fatalf("Begin after Reset: %v", err)
	}
}

// TestSnapshotRestoreResumesIdentically cuts a fed run at every prefix
// point, snapshots, restores into a fresh engine, replays the tail, and
// requires the final state to be byte-identical (JSON) to the
// uninterrupted run — the durability contract internal/serve relies on.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	for _, prov := range []ProvenanceMode{ProvenanceFull, ProvenanceCount} {
		n := 12
		its := uniformSeq(n, 4*n*n, 11)
		cfg := Config{N: n, MaxInteractions: len(its), Provenance: prov, VerifyAggregate: prov == ProvenanceFull}

		// Uninterrupted reference run.
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Begin(greedyAlg{}); err != nil {
			t.Fatal(err)
		}
		var refStates [][]byte // JSON state after each fed interaction
		for _, it := range its {
			done, err := ref.Feed(it)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ref.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			refStates = append(refStates, b)
			if done {
				break
			}
		}
		final := refStates[len(refStates)-1]

		for cut := 0; cut < len(refStates); cut += 3 {
			var st EngineState
			if err := json.Unmarshal(refStates[cut], &st); err != nil {
				t.Fatal(err)
			}
			e := &Engine{}
			if err := e.RestoreStream(cfg, greedyAlg{}, st); err != nil {
				t.Fatalf("prov=%v cut=%d restore: %v", prov, cut, err)
			}
			// Replay the tail.
			for i := cut + 1; i < len(refStates); i++ {
				if _, err := e.Feed(its[i]); err != nil {
					t.Fatalf("prov=%v cut=%d feed %d: %v", prov, cut, i, err)
				}
			}
			got, err := e.StateSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(final) {
				t.Fatalf("prov=%v cut=%d resumed state diverged:\n got %s\nwant %s", prov, cut, b, final)
			}
			// The resumed run must pass full terminal verification.
			res, err := e.Finish()
			if err != nil {
				t.Fatalf("prov=%v cut=%d finish: %v", prov, cut, err)
			}
			if !res.Terminated {
				t.Fatalf("prov=%v cut=%d not terminated: %+v", prov, cut, res)
			}
		}
	}
}

func TestSnapshotRejectsStatefulAlgorithms(t *testing.T) {
	e, err := NewEngine(Config{N: 3, MaxInteractions: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Begin(statefulAlg{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StateSnapshot(); err == nil {
		t.Fatal("snapshot of stateful algorithm should fail")
	}
	if err := (&Engine{}).RestoreStream(Config{N: 3, MaxInteractions: 5}, statefulAlg{}, EngineState{N: 3}); err == nil {
		t.Fatal("restore of stateful algorithm should fail")
	}
}

// statefulAlg is a minimal non-oblivious algorithm for guard tests.
type statefulAlg struct{}

func (statefulAlg) Name() string     { return "stateful" }
func (statefulAlg) Oblivious() bool  { return false }
func (statefulAlg) Setup(*Env) error { return nil }
func (statefulAlg) Decide(_ *Env, _ seq.Interaction, _ int) Decision {
	return NoTransfer
}

func TestRestoreRejectsMismatchedSnapshot(t *testing.T) {
	cfg := Config{N: 4, MaxInteractions: 10}
	src, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Begin(greedyAlg{}); err != nil {
		t.Fatal(err)
	}
	st, err := src.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*EngineState)
		cfg    Config
	}{
		{"wrong-n", func(*EngineState) {}, Config{N: 5, MaxInteractions: 10}},
		{"wrong-sink", func(*EngineState) {}, Config{N: 4, Sink: 1, MaxInteractions: 10}},
		{"wrong-prov", func(*EngineState) {}, Config{N: 4, MaxInteractions: 10, Provenance: ProvenanceCount}},
		{"owner-range", func(s *EngineState) { s.Owners[0] = 9 }, cfg},
		{"owner-order", func(s *EngineState) { s.Owners[1] = s.Owners[0] }, cfg},
		{"len-mismatch", func(s *EngineState) { s.Data = s.Data[:1] }, cfg},
		{"origin-range", func(s *EngineState) { s.Data[0].Origins = []int{77} }, cfg},
		// A run that is over latches done, so these states are not
		// snapshots of any execution.
		{"sink-alone-not-done", func(s *EngineState) { s.Owners, s.Data = s.Owners[:1], s.Data[:1] }, cfg},
		{"sink-gone-not-done", func(s *EngineState) { s.Owners, s.Data = s.Owners[1:], s.Data[1:] }, cfg},
	} {
		bad := st
		bad.Owners = append([]int(nil), st.Owners...)
		bad.Data = make([]ValueState, len(st.Data))
		for i, d := range st.Data {
			bad.Data[i] = d
			bad.Data[i].Origins = append([]int(nil), d.Origins...)
		}
		tc.mutate(&bad)
		if err := (&Engine{}).RestoreStream(tc.cfg, greedyAlg{}, bad); err == nil {
			t.Errorf("%s: RestoreStream should fail", tc.name)
		}
	}
}
