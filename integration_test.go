package doda_test

// End-to-end integration tests across the public API: adversaries,
// knowledge oracles, engine, traces, offline optimum and cost must agree
// with each other on full pipelines.

import (
	"bytes"
	"testing"

	"doda"
	"doda/internal/adversary"
	"doda/internal/experiments"
	"doda/internal/seq"
	"doda/internal/trace"
)

func TestPipelineTraceReconstructionOfflineAgreement(t *testing.T) {
	// Run Gathering with a trace; reconstruct the sequence from the
	// trace; the offline optimum computed on the reconstruction must
	// match the one computed on the adversary's own stream, and replay
	// verification must pass.
	const n = 24
	adv, stream, err := doda.RandomizedAdversary(n, 1234)
	if err != nil {
		t.Fatal(err)
	}
	rec := doda.NewTraceRecorder()
	res, err := doda.Run(doda.Config{
		N: n, MaxInteractions: 1 << 18, Events: rec, VerifyAggregate: true,
	}, doda.NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
	if err := rec.Verify(n, 0); err != nil {
		t.Fatalf("trace verify: %v", err)
	}

	reconstructed, err := rec.Sequence(n)
	if err != nil {
		t.Fatal(err)
	}
	optFromTrace, ok1 := doda.Opt(reconstructed, 0, 0, reconstructed.Len())
	optFromStream, ok2 := doda.Opt(stream, 0, 0, res.Interactions)
	if !ok1 || !ok2 || optFromTrace != optFromStream {
		t.Errorf("opt mismatch: trace %d,%v stream %d,%v", optFromTrace, ok1, optFromStream, ok2)
	}

	// The trace must round-trip through its serialisation.
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(rec.Records) {
		t.Errorf("round trip lost records: %d vs %d", len(back.Records), len(rec.Records))
	}
}

func TestPipelineFullKnowledgeBeatsEveryone(t *testing.T) {
	// On the same sequence, the full-knowledge player must terminate at
	// the offline optimum, which lower-bounds every other algorithm.
	const n = 20
	seeds := []uint64{5, 6, 7}
	for _, seed := range seeds {
		advFK, streamFK, err := doda.RandomizedAdversary(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		const horizon = 1 << 16
		knowFK, err := doda.NewKnowledge(doda.WithFullSequence(streamFK))
		if err != nil {
			t.Fatal(err)
		}
		resFK, err := doda.Run(doda.Config{N: n, MaxInteractions: horizon, Know: knowFK},
			doda.NewFullKnowledge(horizon), advFK)
		if err != nil {
			t.Fatal(err)
		}
		advG, _, err := doda.RandomizedAdversary(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		resG, err := doda.Run(doda.Config{N: n, MaxInteractions: horizon}, doda.NewGathering(), advG)
		if err != nil {
			t.Fatal(err)
		}
		if !resFK.Terminated || !resG.Terminated {
			t.Fatalf("seed %d: FK=%+v G=%+v", seed, resFK, resG)
		}
		if resFK.Duration > resG.Duration {
			t.Errorf("seed %d: full knowledge (%d) slower than gathering (%d)",
				seed, resFK.Duration, resG.Duration)
		}
		opt, ok := doda.Opt(streamFK, 0, 0, horizon)
		if !ok || resFK.Duration != opt {
			t.Errorf("seed %d: FK duration %d != opt %d", seed, resFK.Duration, opt)
		}
	}
}

func TestPipelineWeightedAdversary(t *testing.T) {
	const n = 24
	ws, err := adversary.ZipfWeights(n, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	adv, _, err := doda.WeightedAdversary(ws, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := doda.Run(doda.Config{N: n, MaxInteractions: 1 << 20, VerifyAggregate: true},
		doda.NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
	if _, err := adversary.SinkScaledWeights(n, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := adversary.ZipfWeights(1, 1); err == nil {
		t.Error("want error")
	}
}

func TestPipelineRecurrentAndStream(t *testing.T) {
	// A custom stream played through the facade's oblivious adversary.
	st, err := seq.NewStream(4, func(t int) doda.Interaction {
		pairs := []doda.Interaction{{U: 2, V: 3}, {U: 1, V: 2}, {U: 0, V: 1}}
		return pairs[t%3]
	})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := doda.ObliviousAdversary("custom", st)
	if err != nil {
		t.Fatal(err)
	}
	res, err := doda.Run(doda.Config{N: 4, MaxInteractions: 100}, doda.NewGathering(), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}

	// Recurrent adversary over explicit edges.
	e01, err := seq.NewInteraction(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = e01
	edges := []doda.Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	radv, rstream, err := doda.RecurrentAdversary(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	if rstream.At(2) != (doda.Interaction{U: 0, V: 1}) {
		t.Errorf("recurrent stream wrong: %v", rstream.At(2))
	}
	res2, err := doda.Run(doda.Config{N: 3, MaxInteractions: 50}, doda.NewWaiting(), radv)
	if err != nil {
		t.Fatal(err)
	}
	_ = res2
}

func TestPipelineFutureOptimalVsClockCost(t *testing.T) {
	// Theorem 6 through the public API: cost of future-optimal ≤ n.
	const n = 12
	_, stream, err := doda.RandomizedAdversary(n, 77)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 50000
	prefix := stream.Prefix(horizon)
	know, err := doda.NewKnowledge(doda.WithFutures(prefix))
	if err != nil {
		t.Fatal(err)
	}
	adv, err := doda.ObliviousAdversary("prefix", prefix)
	if err != nil {
		t.Fatal(err)
	}
	res, err := doda.Run(doda.Config{N: n, MaxInteractions: horizon, Know: know},
		doda.NewFutureOptimal(horizon), adv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Terminated {
		t.Fatalf("res = %+v", res)
	}
	clock, err := doda.NewClock(prefix, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cost, ok := clock.Cost(res.Duration)
	if !ok || cost > n {
		t.Errorf("cost = %d,%v want ≤ %d", cost, ok, n)
	}
}

func TestPipelineExperimentThroughFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	e, ok := experiments.ByID("E5")
	if !ok {
		t.Fatal("E5 missing")
	}
	rep, err := e.Run(experiments.Config{Scale: experiments.ScaleQuick, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		t.Error("E5 failed through the facade")
	}
}
