package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"doda/internal/analysis"
	"doda/internal/chaos"
	"doda/internal/experiments"
	"doda/internal/serve"
	"doda/internal/sweepd"
)

// One register, four 256-interaction ingests and the rotation the
// fourth triggers (SnapshotEvery 1024) must classify as exactly: two
// publishes (generation 0, generation 1), six file fsyncs (gen 0, four
// appends, gen 1) and three directory fsyncs (two publishes plus the
// sync after the old generation is removed).
func TestTimingFSClassifier(t *testing.T) {
	dir := t.TempDir()
	rec := newRecorder()
	rec.on.Store(true)
	srv, err := serve.NewServer(serve.Options{
		Dir: dir, FS: newTimingFS(chaos.Disk, rec, "wal", dir), SnapshotEvery: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inst, err := srv.Register(instanceConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for b := uint64(1); b <= 4; b++ {
		h, err := inst.Ingest(ctx, batch(1, 0, b), b)
		if err == nil {
			err = h.Wait(ctx)
		}
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	got := newTree(rec.snapshot()).byName
	for name, want := range map[string]int{
		"wal." + opPublish: 2,
		"wal." + opSync:    6,
		"wal." + opSyncDir: 3,
		"wal." + opAppend:  4,
		"wal." + opRead:    0,
	} {
		if got[name].n != want {
			t.Errorf("%s: %d spans, want %d", name, got[name].n, want)
		}
	}
	if pub := got["wal."+opPublish]; pub.bytes == 0 || pub.dur <= 0 {
		t.Errorf("publish spans carry no bytes or time: %+v", pub)
	}
}

func TestPercentileFailuresRankWorst(t *testing.T) {
	ms := time.Millisecond
	lats := []time.Duration{3 * ms, failedLatency, 1 * ms, 2 * ms}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.25, 1 * ms}, {0.5, 2 * ms}, {0.75, 3 * ms}, {0.9, failedLatency}, {1, failedLatency}} {
		if got := percentile(lats, c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p*100, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// Slice medians: the rate counts acknowledged batches per second of each
// slice, an empty slice counts toward the rate alone, and a failed batch
// ranks worst inside its slice's percentiles.
func TestSliceMedians(t *testing.T) {
	ms := time.Millisecond
	lats := [][]time.Duration{
		{3 * ms, 1 * ms, 2 * ms},
		{failedLatency, 1 * ms},
		{},
		{4 * ms, 4 * ms, 4 * ms, 4 * ms},
	}
	lens := []time.Duration{time.Second, time.Second, time.Second, time.Second / 2}
	// Rates 3, 1, 0 and 8 per second; p50s 2, 1 and 4 ms; p90s 3 ms, a
	// failure and 4 ms.
	rate, p50, p90 := sliceMedians(lats, lens)
	if rate != 1 || p50 != 2*ms || p90 != 4*ms {
		t.Errorf("sliceMedians = %v/s, p50 %v, p90 %v; want 1/s, 2ms, 4ms", rate, p50, p90)
	}
	lats[0][0], lats[3][0] = failedLatency, failedLatency
	if _, _, p90 := sliceMedians(lats, lens); p90 != failedLatency {
		t.Errorf("p90 with failures in most slices = %v, want a failure", p90)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 10, end: 30},
		{start: 20, end: 40},   // overlaps the first: [10,40) counts once
		{start: 90, end: 120},  // clipped to the parent: 10
		{start: 200, end: 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 60 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

// Filesystem work for an instance with no open handler is eviction work;
// the next rehydration read hands it to the handler that read.
func TestOrphansAttachToTheRehydratingHandler(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	feed := rec.begin(spanFeed, "a", 7)
	rt := rec.begin(spanRoundTrip, "a", 7)
	h := rec.begin(spanHandler, "a", 7)
	evict := rec.begin("wal."+opPublish, "b", 0)
	rec.end(evict, 10, false)
	rec.claimOrphans("a")
	read := rec.begin("wal."+opRead, "a", 0)
	rec.end(read, 100, false)
	for _, id := range []int{h, rt, feed} {
		rec.end(id, 0, false)
	}
	spans := rec.snapshot()
	if spans[rt].parent != feed || spans[h].parent != rt {
		t.Fatalf("request chain not linked: %+v", spans)
	}
	if s := spans[evict]; s.parent != h || !s.evict {
		t.Errorf("eviction publish: parent %d evict %v, want parent %d evict true", s.parent, s.evict, h)
	}
	if s := spans[read]; s.parent != h || s.evict {
		t.Errorf("rehydration read: parent %d evict %v, want parent %d evict false", s.parent, s.evict, h)
	}
	if !newTree(spans).rehydrated(feed) {
		t.Error("feed not classified as a miss")
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if workloadNamed(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the program",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// The sweep workload's S1 grid must be the grid experiment S1 runs:
// run S1 at quick scale through its checkpointed path and compare the
// grid its journal records with s1Grid at the same scale.
func TestS1GridMatchesExperiment(t *testing.T) {
	e, ok := experiments.ByID("S1")
	if !ok {
		t.Fatal("experiment S1 not found")
	}
	const seed = 7
	dir := t.TempDir()
	if _, err := e.Run(experiments.Config{Scale: experiments.ScaleQuick, Seed: seed, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	h, _, err := sweepd.ReadCheckpoint(filepath.Join(dir, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(h.Grid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(s1Grid(seed, 32, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("S1 journaled grid\n%s\ns1Grid\n%s", got, want)
	}
}

// quickSweep is the sweep workload at the analysis and experiment
// suites' quick scale, small enough for a smoke run.
var quickSweep = sweepSpec{grids: func(seed uint64) []namedGrid {
	return []namedGrid{
		{"scaling", analysis.ReportGrid(false, seed)},
		{"s1", s1Grid(seed, 32, 20)},
	}
}}

// Each workload runs for about a second, untraced and traced, with its
// output checks on, and reports every metric.
func TestWorkloadsSmoke(t *testing.T) {
	smoke := []workload{{"sweep", quickSweep.run}}
	for _, w := range workloads {
		if w.name != "sweep" {
			smoke = append(smoke, w)
		}
	}
	for _, w := range smoke {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 3, seconds: time.Second, trash: filepath.Join(t.TempDir(), "trash")}
			base, err := w.runIn(cfg, filepath.Join(t.TempDir(), "untraced"), nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.runIn(cfg, filepath.Join(t.TempDir(), "traced"), newRecorder())
			if err != nil {
				t.Fatal(err)
			}
			e2e, layers := endToEndResult(base), perLayerResult(traced, base)
			for _, res := range []result{e2e, layers} {
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d (checks: %v, %v)",
						res.Correct, res.Attempted, res.Failed, base.checkErr, traced.checkErr)
				}
			}
			for _, d := range endToEnd {
				if v := e2e.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %v %s, want a positive value in %s", d.name, v.Value, v.Unit, d.unit)
				}
			}
			if len(layers.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(layers.Metrics), len(perLayer))
			}
			layer := func(name string) float64 { return layers.Metrics[name].Value }
			switch w.name {
			case "sweep":
				for _, name := range []string{"sweep.fast_ns_per_interaction", "sweep.knowledge_ns_per_interaction",
					"adversary.uniform_draw_ns", "scenario.edge_markovian_ns_per_interaction",
					"sweepd.publish_ms", "sweepd.fsyncs_per_cell", "sweepd.bytes_per_cell"} {
					if layer(name) <= 0 {
						t.Errorf("%s = %v, want > 0", name, layer(name))
					}
				}
			case "ingest-ephemeral":
				if layer("wal.fsyncs_per_ack") != 0 || layer("wal.append_us") != 0 {
					t.Errorf("ephemeral run touched a WAL: fsyncs/ack %v", layer("wal.fsyncs_per_ack"))
				}
			case "ingest-durable":
				if layer("wal.fsyncs_per_ack") < 1 || layer("wal.rotations_per_ack") <= 0 {
					t.Errorf("durable run: fsyncs/ack %v rotations/ack %v, want ≥ 1 and > 0",
						layer("wal.fsyncs_per_ack"), layer("wal.rotations_per_ack"))
				}
			case "ingest-evicting":
				if layer("lifecycle.rehydrations_per_ack") <= 0 || layer("lifecycle.evict_publish_us") <= 0 {
					t.Errorf("evicting run: rehydrations/ack %v evict publish %v µs, want > 0",
						layer("lifecycle.rehydrations_per_ack"), layer("lifecycle.evict_publish_us"))
				}
			}
			if w.name != "sweep" {
				for _, name := range []string{"serveclient.feed_us", "http.roundtrip_us", "serve.handler_us",
					"core.feed_ns_per_interaction", "core.snapshot_us"} {
					if layer(name) <= 0 {
						t.Errorf("%s = %v, want > 0", name, layer(name))
					}
				}
			}
		})
	}
}
