package main

// Per-layer metrics, derived after a traced window from its spans, the
// journaled cell wall times, and timed standalone calls into the
// engine, the adversary and the scenario generators.

import (
	"encoding/json"
	"strings"
	"time"

	"doda/internal/adversary"
	"doda/internal/agg"
	"doda/internal/algorithms"
	"doda/internal/core"
	"doda/internal/rng"
	"doda/internal/scenario"
	"doda/internal/seq"
	"doda/internal/sweepd"
)

// spanStats sums the closed spans of one name.
type spanStats struct {
	n     int
	dur   int64
	bytes int64
}

func (s spanStats) meanUs() float64 { return ratio(float64(s.dur)/1e3, float64(s.n)) }

// tree indexes closed spans by name and by parent.
type tree struct {
	spans    []span
	children map[int][]int
	byName   map[string]spanStats
}

func newTree(spans []span) *tree {
	t := &tree{spans: spans, children: make(map[int][]int), byName: make(map[string]spanStats)}
	for id, s := range spans {
		if s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			t.children[s.parent] = append(t.children[s.parent], id)
		}
		st := t.byName[s.name]
		st.n++
		st.dur += s.dur()
		st.bytes += s.bytes
		t.byName[s.name] = st
	}
	return t
}

// kids returns the closed children of id that keep says to.
func (t *tree) kids(id int, keep func(span) bool) []span {
	var out []span
	for _, c := range t.children[id] {
		if s := t.spans[c]; s.end >= 0 && keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func named(name string) func(span) bool { return func(s span) bool { return s.name == name } }

// isFSLeaf is a single WAL filesystem call; publish spans group calls.
func isFSLeaf(s span) bool { return strings.HasPrefix(s.name, "wal.") && s.name != "wal."+opPublish }

// ingestLayers derives the serving stack's layer metrics from a traced
// window. next holds each instance's next seq: its acknowledged batches
// are 1..next-1.
func ingestLayers(spans []span, o *outcome, seed uint64, next []uint64) (map[string]float64, error) {
	t := newTree(spans)
	acks := float64(o.attempted - o.failed)
	var (
		feedSelf, rtSelf, hFS  float64
		feedLats, miss, hit    []time.Duration
		rotations, evictions   spanStats
		attempts, handlerCount int
		handlerDur             float64
	)
	for id, s := range t.spans {
		if s.end < 0 {
			continue
		}
		switch s.name {
		case spanFeed:
			rts := t.kids(id, named(spanRoundTrip))
			feedSelf += float64(selfTime(s, rts))
			lat := time.Duration(s.dur())
			if s.failed {
				feedLats = append(feedLats, failedLatency)
				continue
			}
			feedLats = append(feedLats, lat)
			if t.rehydrated(id) {
				miss = append(miss, lat)
			} else {
				hit = append(hit, lat)
			}
		case spanRoundTrip:
			attempts++
			rtSelf += float64(selfTime(s, t.kids(id, named(spanHandler))))
		case spanHandler:
			handlerCount++
			handlerDur += float64(s.dur())
			hFS += float64(s.dur() - selfTime(s, t.kids(id, isFSLeaf)))
		case "wal." + opPublish:
			st := &rotations
			if s.evict {
				st = &evictions
			}
			st.n++
			st.dur += s.dur()
		}
	}
	feedNs, snapshotUs, err := engineTiming(seed, next)
	if err != nil {
		return nil, err
	}
	feeds := t.byName[spanFeed]
	rt := t.byName[spanRoundTrip]
	h := t.byName[spanHandler]
	walBytes := t.byName["wal."+opAppend].bytes + t.byName["wal."+opWrite].bytes
	reads := t.byName["wal."+opRead]

	v := map[string]float64{
		"serveclient.feed_us":                  feeds.meanUs(),
		"serveclient.self_us":                  ratio(feedSelf/1e3, float64(feeds.n)),
		"serveclient.attempts_per_batch":       ratio(float64(attempts), float64(feeds.n)),
		"serveclient.feed_p99_ms":              ms(percentile(feedLats, 0.99)),
		"http.roundtrip_us":                    rt.meanUs(),
		"http.self_us":                         ratio(rtSelf/1e3, float64(rt.n)),
		"http.body_bytes_per_interaction":      ratio(float64(rt.bytes), float64(rt.n*batchSize)),
		"serve.handler_us":                     h.meanUs(),
		"serve.self_us":                        ratio((handlerDur-hFS)/1e3, float64(handlerCount)) - feedNs*batchSize/1e3,
		"wal.append_us":                        t.byName["wal."+opAppend].meanUs(),
		"wal.fsync_us":                         t.byName["wal."+opSync].meanUs(),
		"wal.fsyncs_per_ack":                   ratio(float64(t.byName["wal."+opSync].n), acks),
		"wal.dirsyncs_per_ack":                 ratio(float64(t.byName["wal."+opSyncDir].n), acks),
		"wal.rotations_per_ack":                ratio(float64(rotations.n), acks),
		"wal.rotation_us":                      rotations.meanUs(),
		"wal.bytes_per_interaction":            ratio(float64(walBytes), o.interactions),
		"wal.handler_share":                    ratio(hFS, handlerDur),
		"lifecycle.rehydrations_per_ack":       ratio(float64(reads.n), acks),
		"lifecycle.read_bytes_per_rehydration": ratio(float64(reads.bytes), float64(reads.n)),
		"lifecycle.evict_publish_us":           evictions.meanUs(),
		"lifecycle.miss_ack_ms":                ms(median(miss)),
		"lifecycle.hit_ack_ms":                 ms(median(hit)),
		"core.feed_ns_per_interaction":         feedNs,
		"core.snapshot_us":                     snapshotUs,
	}
	return v, nil
}

// rehydrated reports whether the handler under feed id read a WAL
// generation back, i.e. the batch missed the live set.
func (t *tree) rehydrated(feed int) bool {
	for _, rt := range t.children[feed] {
		for _, h := range t.children[rt] {
			for _, c := range t.children[h] {
				if t.spans[c].name == "wal."+opRead {
					return true
				}
			}
		}
	}
	return false
}

// newServeEngine builds the engine serve builds for instanceConfig:
// arena-backed, full provenance, verified min aggregation over an
// unbounded stream, running Waiting.
func newServeEngine() (*core.Engine, error) {
	arena, err := core.NewArena(nodes, core.ProvenanceFull)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(core.Config{
		N:               nodes,
		Agg:             agg.Min,
		MaxInteractions: 1 << 50,
		Provenance:      core.ProvenanceFull,
		VerifyAggregate: true,
		Arena:           arena,
	})
	if err != nil {
		return nil, err
	}
	return eng, eng.Begin(algorithms.Waiting{})
}

// engineTiming replays every acknowledged batch through standalone
// engines, timing Engine.Feed per interaction, and times one
// StateSnapshot plus its JSON encoding per instance.
func engineTiming(seed uint64, next []uint64) (feedNs, snapshotUs float64, err error) {
	var feedT, snapT time.Duration
	fed := 0
	for i := range next {
		eng, err := newServeEngine()
		if err != nil {
			return 0, 0, err
		}
		for b := uint64(1); b < next[i]; b++ {
			its := batch(seed, i, b)
			t0 := time.Now()
			for _, it := range its {
				if _, err := eng.Feed(it); err != nil {
					return 0, 0, err
				}
			}
			feedT += time.Since(t0)
			fed += len(its)
		}
		t0 := time.Now()
		st, err := eng.StateSnapshot()
		if err != nil {
			return 0, 0, err
		}
		if _, err := json.Marshal(st); err != nil {
			return 0, 0, err
		}
		snapT += time.Since(t0)
	}
	return ratio(float64(feedT), float64(fed)), ratio(float64(snapT)/1e3, float64(len(next))), nil
}

// sweepLayers derives the simulation stack's layer metrics from a
// traced sweep window and its journaled cells.
func sweepLayers(spans []span, recs []sweepd.CellRecord, o *outcome, seed uint64) (map[string]float64, error) {
	var fastWall, fastInts, wgWall, wgInts, allWall float64
	for _, r := range recs {
		ints := r.Result.Interactions.Mean * float64(r.Result.Interactions.Count)
		allWall += r.WallMs
		switch alg := r.Result.Algorithm; {
		case r.Result.Scenario.Name == "uniform" && (alg == "waiting" || alg == "gathering"):
			fastWall += r.WallMs
			fastInts += ints
		case alg == "waiting-greedy":
			wgWall += r.WallMs
			wgInts += ints
		}
	}
	draw, err := uniformDrawNs(seed)
	if err != nil {
		return nil, err
	}
	em, err := edgeMarkovianNs(seed)
	if err != nil {
		return nil, err
	}
	t := newTree(spans)
	cells := float64(len(recs))
	pub := t.byName["sweepd."+opPublish]
	syncs := t.byName["sweepd."+opSync].n + t.byName["sweepd."+opSyncDir].n
	written := t.byName["sweepd."+opWrite].bytes + t.byName["sweepd."+opAppend].bytes
	fast := ratio(fastWall*1e6, fastInts)
	return map[string]float64{
		"sweep.fast_ns_per_interaction":              fast,
		"adversary.uniform_draw_ns":                  draw,
		"core.run_ns_per_interaction":                fast - draw,
		"sweep.knowledge_ns_per_interaction":         ratio(wgWall*1e6, wgInts),
		"sweep.knowledge_time_frac":                  ratio(wgWall, allWall),
		"scenario.edge_markovian_ns_per_interaction": em,
		"sweep.worker_busy_frac":                     ratio(allWall/1e3, sweepWorkers*o.window.Seconds()),
		"sweepd.publish_ms":                          pub.meanUs() / 1e3,
		"sweepd.fsyncs_per_cell":                     ratio(float64(syncs), cells),
		"sweepd.bytes_per_cell":                      ratio(float64(written), cells),
		"sweepd.progress_writes":                     float64(t.byName["sweepd."+opCreate].n),
	}, nil
}

// standaloneReps is how many timed repetitions a standalone measurement
// takes; it reports their median.
const standaloneReps = 9

// perCall times calls (per repetition) of fn standaloneReps times and
// returns the median time per call in ns.
func perCall(calls int, fn func(calls int)) float64 {
	ds := make([]time.Duration, standaloneReps)
	for i := range ds {
		t0 := time.Now()
		fn(calls)
		ds[i] = time.Since(t0)
	}
	return float64(median(ds)) / float64(calls)
}

// uniformDrawNs times the uniform adversary the sweep's fast path plays
// (a seeded generator drained in engine-sized batches) per draw.
func uniformDrawNs(seed uint64) (float64, error) {
	const n = 256
	gen, err := adversary.NewGenerated("uniform", n, seq.UniformGen(n, rng.New(seed)))
	if err != nil {
		return 0, err
	}
	buf := make([]seq.Interaction, 512)
	t := 0
	return perCall(1<<20, func(calls int) {
		for end := t + calls; t < end; t += len(buf) {
			gen.NextBatch(t, nil, buf)
		}
	}), nil
}

// edgeMarkovianNs times S1's edge-Markovian generator (n=64, p-up 0.05,
// p-down 0.2) per generated interaction.
func edgeMarkovianNs(seed uint64) (float64, error) {
	m, err := scenario.NewEdgeMarkovian(64, 0.05, 0.2)
	if err != nil {
		return 0, err
	}
	gen := m.Generator(rng.New(seed))
	t := 0
	return perCall(1<<12, func(calls int) {
		for end := t + calls; t < end; t++ {
			gen(t)
		}
	}), nil
}
