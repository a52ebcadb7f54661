package doda

import (
	"testing"

	"doda/internal/adversary"
	"doda/internal/core"
	"doda/internal/experiments"
	"doda/internal/seq"
)

func TestQuickstartFlow(t *testing.T) {
	adv, _, err := RandomizedAdversary(16, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 16, MaxInteractions: 1 << 18, VerifyAggregate: true}, NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.Transmissions != 15 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWaitingGreedyFlow(t *testing.T) {
	const n = 16
	adv, stream, err := RandomizedAdversary(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	budget := 40 * n * n
	know, err := NewKnowledge(WithMeetTime(stream, 0, budget))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: n, MaxInteractions: budget, Know: know, VerifyAggregate: true},
		NewWaitingGreedy(TauStar(n)), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
}

func TestCostFlow(t *testing.T) {
	adv, stream, err := RandomizedAdversary(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 12, MaxInteractions: 1 << 18}, NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := NewClock(stream, 0, res.Duration+1<<14)
	if err != nil {
		t.Fatal(err)
	}
	cost, ok := clock.Cost(res.Duration)
	if !ok || cost < 1 {
		t.Fatalf("cost = %d,%v", cost, ok)
	}
}

func TestAdversarialConstructions(t *testing.T) {
	adv1, err := Theorem1Adversary(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{N: 3, MaxInteractions: 1000}, NewGathering(), adv1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated {
		t.Error("Theorem 1 adversary should prevent termination")
	}

	adv3, g, err := Theorem3Adversary(0)
	if err != nil {
		t.Fatal(err)
	}
	know, err := NewKnowledge(WithUnderlying(g))
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Run(Config{N: 4, MaxInteractions: 1000, Know: know}, NewSpanningTree(), adv3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Terminated {
		t.Error("Theorem 3 adversary should prevent termination")
	}
}

func TestTraceFlow(t *testing.T) {
	rec := NewTraceRecorder()
	adv, _, err := RandomizedAdversary(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{N: 8, MaxInteractions: 1 << 16, Events: rec}, NewGathering(), adv); err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(8, 0); err != nil {
		t.Errorf("trace verification: %v", err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(experiments.All()) != 20 {
		t.Errorf("got %d experiments", len(experiments.All()))
	}
	if _, ok := experiments.ByID("E8"); !ok {
		t.Error("E8 missing")
	}
	if _, ok := experiments.ByID("S1"); !ok {
		t.Error("S1 missing")
	}
}

func TestPairAndSequence(t *testing.T) {
	it, err := seq.NewInteraction(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if it.U != 1 || it.V != 3 {
		t.Errorf("Pair = %v", it)
	}
	s, err := NewSequence(4, []Interaction{it})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if _, err := seq.NewInteraction(2, 2); err == nil {
		t.Error("self pair should fail")
	}
}

func TestRuntimeFacade(t *testing.T) {
	adv, _, err := RandomizedAdversary(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(RuntimeConfig{N: 8, MaxInteractions: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
}

// TestProvenanceFacade runs a count-only, batched execution through the
// root package's Run.
func TestProvenanceFacade(t *testing.T) {
	mode, err := core.ParseProvenanceMode("count")
	if err != nil || mode != core.ProvenanceCount {
		t.Fatalf("ParseProvenanceMode = %v, %v", mode, err)
	}
	var adv Adversary
	adv, err = adversary.NewGenerated("star", 16, func(t int) Interaction {
		return Interaction{U: 0, V: NodeID(1 + t%15)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := adv.(core.BatchAdversary); !ok {
		t.Fatal("generated adversaries must support batching")
	}
	res, err := Run(Config{N: 16, MaxInteractions: 1 << 16, Provenance: core.ProvenanceCount}, NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated || res.SinkValue.Origins != nil {
		t.Fatalf("res = %+v", res)
	}
}
