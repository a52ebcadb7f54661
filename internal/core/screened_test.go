package core

// Tests for the screened drain path: a ScreenedAdversary hands the
// engine only interactions between two data owners, and the Result must
// be the batched and scalar paths' Result. The engine checks what it is
// handed and falls back to NextBatch wherever the skip would be seen.

import (
	"fmt"
	"strings"
	"testing"

	"doda/internal/bitset"
	"doda/internal/rng"
	"doda/internal/seq"
)

// cycleScreenAdv plays steps cyclically (the interaction at t is
// steps[t mod len]) on every path; NextOwned scans for the first owner
// pair. corrupt, when set, rewrites what NextOwned returns.
type cycleScreenAdv struct {
	n       int
	steps   []seq.Interaction
	corrupt func(it seq.Interaction, at, t, span int) (seq.Interaction, int)
	owned   int // NextOwned calls
	batches int // NextBatch calls
}

func (*cycleScreenAdv) Name() string { return "cycle" }
func (a *cycleScreenAdv) N() int     { return a.n }
func (a *cycleScreenAdv) Next(t int, _ ExecView) (seq.Interaction, bool) {
	return a.steps[t%len(a.steps)], true
}
func (a *cycleScreenAdv) NextBatch(t int, _ ExecView, buf []seq.Interaction) int {
	a.batches++
	for i := range buf {
		buf[i] = a.steps[(t+i)%len(a.steps)]
	}
	return len(buf)
}
func (a *cycleScreenAdv) NextOwned(t, span int, owners []uint64) (seq.Interaction, int, bool) {
	a.owned++
	for at := t; at < t+span; at++ {
		it := a.steps[at%len(a.steps)]
		if bitset.TestWord(owners, int(it.U)) && bitset.TestWord(owners, int(it.V)) {
			if a.corrupt != nil {
				it, at = a.corrupt(it, at, t, span)
			}
			return it, at, true
		}
	}
	return seq.Interaction{}, 0, false
}

func newCycleScreenAdv(n, length int, seed uint64) *cycleScreenAdv {
	gen := seq.UniformGen(n, rng.New(seed))
	steps := make([]seq.Interaction, length)
	for i := range steps {
		steps[i] = gen(i)
	}
	return &cycleScreenAdv{n: n, steps: steps}
}

// batchOnly embeds only BatchAdversary, so it hides NextOwned: the
// engine drains the wrapped adversary through NextBatch.
type batchOnly struct{ BatchAdversary }

// countingSink is an EventSink that only counts.
type countingSink struct{ events int }

func (s *countingSink) OnEvent(Event) { s.events++ }
func (s *countingSink) OnDone(Result) {}

// TestScreenedMatchesBatched plays the same cyclic sequences through the
// screened, batched and scalar paths, for runs that terminate and runs
// the cap ends mid-way, and checks every Result field; it also checks
// the screened path was taken, and that an Observer, an EventSink or a
// node count that differs from the adversary's sends the engine to
// NextBatch instead.
func TestScreenedMatchesBatched(t *testing.T) {
	terminated := 0
	for _, n := range []int{2, 3, 63, 64, 65, 200} {
		for _, alg := range []Algorithm{gatherAlg{}, waitAlg{}} {
			for _, cap := range []int{1, 7, batchSize + 3, 400*n*n + 4000} {
				cfg := Config{N: n, MaxInteractions: cap, VerifyAggregate: true}
				adv := newCycleScreenAdv(n, 4*n*n+5000, uint64(n)+uint64(cap))
				run := func(a Adversary, cfg Config) Result {
					res, err := RunOnce(cfg, alg, a)
					if err != nil {
						t.Fatalf("n=%d cap=%d %s: %v", n, cap, alg.Name(), err)
					}
					return res
				}
				label := fmt.Sprintf("n=%d cap=%d %s", n, cap, alg.Name())
				screened := run(adv, cfg)
				if adv.owned == 0 || adv.batches != 0 {
					t.Fatalf("%s: %d NextOwned and %d NextBatch calls on the screened path", label, adv.owned, adv.batches)
				}
				sameResult(t, label+" batched", run(batchOnly{adv}, cfg), screened)
				sameResult(t, label+" scalar", run(nextOnly{adv}, cfg), screened)
				sink := &countingSink{}
				withSink := cfg
				withSink.Events = sink
				adv.owned, adv.batches = 0, 0
				sameResult(t, label+" with a sink", run(adv, withSink), screened)
				if adv.owned != 0 || sink.events != screened.Interactions {
					t.Errorf("%s: with a sink, %d NextOwned calls and %d events for %d interactions", label, adv.owned, sink.events, screened.Interactions)
				}
				if screened.Terminated {
					terminated++
				}
			}
		}
	}
	if terminated == 0 {
		t.Error("no run terminated: the test shows nothing")
	}

	// An Observer sees every interaction, so it is drained in batches.
	adv := newCycleScreenAdv(8, 300, 1)
	alg := &observerAlg{}
	res, err := RunOnce(Config{N: 8, MaxInteractions: 1000}, alg, adv)
	if err != nil {
		t.Fatal(err)
	}
	if adv.owned != 0 || len(alg.observed) != res.Interactions {
		t.Errorf("observer: %d NextOwned calls, %d observed of %d interactions", adv.owned, len(alg.observed), res.Interactions)
	}

	// An adversary over fewer nodes than the run is drained in batches
	// too, so it meets the same checks as on the batched path.
	adv = newCycleScreenAdv(8, 300, 2)
	if _, err := RunOnce(Config{N: 12, MaxInteractions: 1000}, gatherAlg{}, adv); err != nil {
		t.Fatal(err)
	}
	if adv.owned != 0 || adv.batches == 0 {
		t.Errorf("n mismatch: %d NextOwned and %d NextBatch calls", adv.owned, adv.batches)
	}
}

// TestScreenedRejectsBadInteraction checks that the engine refuses what a
// screened adversary must never hand it: a pair that is not canonical or
// not in range, a time outside the span asked for, and a pair whose
// endpoints do not both own data.
func TestScreenedRejectsBadInteraction(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name    string
		corrupt func(it seq.Interaction, at, t, span int) (seq.Interaction, int)
		want    string
	}{
		{"reversed", func(it seq.Interaction, at, _, _ int) (seq.Interaction, int) {
			return seq.Interaction{U: it.V, V: it.U}, at
		}, "canonical"},
		{"self-loop", func(it seq.Interaction, at, _, _ int) (seq.Interaction, int) {
			return seq.Interaction{U: it.U, V: it.U}, at
		}, "canonical"},
		{"out of range", func(it seq.Interaction, at, _, _ int) (seq.Interaction, int) {
			return seq.Interaction{U: it.U, V: n}, at
		}, "canonical"},
		{"negative", func(it seq.Interaction, at, _, _ int) (seq.Interaction, int) {
			return seq.Interaction{U: -1, V: it.V}, at
		}, "canonical"},
		{"before the span", func(it seq.Interaction, _, t, _ int) (seq.Interaction, int) {
			return it, t - 1
		}, "span"},
		{"past the span", func(it seq.Interaction, _, t, span int) (seq.Interaction, int) {
			return it, t + span
		}, "span"},
		{"not owners", func(it seq.Interaction, at, t, _ int) (seq.Interaction, int) {
			if t == 0 {
				return it, at
			}
			return seq.Interaction{U: 0, V: 1}, at // the first transfer, below, leaves 1 without data
		}, "owners"},
	} {
		adv := newCycleScreenAdv(n, 100, 4)
		adv.steps[0] = seq.Interaction{U: 0, V: 1}
		adv.corrupt = tc.corrupt
		_, err := RunOnce(Config{N: n, MaxInteractions: 1000}, gatherAlg{}, adv)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
