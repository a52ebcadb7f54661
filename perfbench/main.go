// Command perfbench is the repository benchmark. It runs one workload
// of the aggregation system in this process — the paper-scale sweep
// through sweepd, or dodaserve-style ingest over loopback HTTP — checks
// the outputs, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the workload runs twice, untraced and
// then traced, and the result carries the per-layer metrics derived
// from the trace plus the tracing overhead. A failed output check
// prints "correct": false and exits 1; a run that cannot complete
// prints no result and exits 1. NOTES.md explains the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, from untraced runs.
var endToEnd = []metricDef{
	{"interactions_per_s", "1/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"failed_frac", "frac"},
	{"serveclient.feed_us", "us"},
	{"serveclient.self_us", "us"},
	{"serveclient.attempts_per_batch", "count"},
	{"serveclient.feed_p99_ms", "ms"},
	{"http.roundtrip_us", "us"},
	{"http.self_us", "us"},
	{"http.body_bytes_per_interaction", "B"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_ack", "count"},
	{"wal.dirsyncs_per_ack", "count"},
	{"wal.rotations_per_ack", "count"},
	{"wal.rotation_us", "us"},
	{"wal.bytes_per_interaction", "B"},
	{"wal.handler_share", "frac"},
	{"lifecycle.rehydrations_per_ack", "count"},
	{"lifecycle.read_bytes_per_rehydration", "B"},
	{"lifecycle.evict_publish_us", "us"},
	{"lifecycle.miss_ack_ms", "ms"},
	{"lifecycle.hit_ack_ms", "ms"},
	{"core.feed_ns_per_interaction", "ns"},
	{"core.snapshot_us", "us"},
	{"core.run_ns_per_interaction", "ns"},
	{"sweep.fast_ns_per_interaction", "ns"},
	{"sweep.knowledge_ns_per_interaction", "ns"},
	{"sweep.knowledge_time_frac", "frac"},
	{"adversary.uniform_draw_ns", "ns"},
	{"scenario.edge_markovian_ns_per_interaction", "ns"},
	{"sweep.worker_busy_frac", "frac"},
	{"sweepd.publish_ms", "ms"},
	{"sweepd.fsyncs_per_cell", "count"},
	{"sweepd.bytes_per_cell", "B"},
	{"sweepd.progress_writes", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_interaction", "B"},
	{"disk.fsync_probe_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch space inside the checkout, removed after the run
	trash   string // where finished WAL trees are moved; see retire
}

// outcome is one workload run, traced or not.
type outcome struct {
	attempted, failed int64
	interactions      float64 // acknowledged (ingest) or simulated (sweep)
	window            time.Duration
	throughput        float64       // interactions_per_s
	ackP50, ackP90    time.Duration // ack latency percentiles
	setups            []time.Duration
	maxRSSMB          float64
	checkErr          error // first failed output check
	digests           map[string]string
	env               envRecord
	runtime           runtimeSample      // counters over the window
	layers            map[string]float64 // traced runs only
}

type workload struct {
	name string
	run  func(cfg runConfig, rec *recorder) (*outcome, error)
}

var workloads = []workload{
	{"sweep", paperSweep.run},
	{"ingest-ephemeral", ingestEphemeral.run},
	{"ingest-durable", ingestDurable.run},
	{"ingest-evicting", ingestEvicting.run},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runIn runs the workload in a fresh scratch directory and removes it.
func (w *workload) runIn(cfg runConfig, dir string, rec *recorder) (*outcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	return w.run(cfg, rec)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var errCheck = errors.New("output check failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of the measured window")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory (removed per run)")
		spans   = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w := workloadNamed(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trash:   filepath.Join(*workdir, "trash"),
	}

	var (
		res       result
		out       *outcome
		spansPath string
	)
	if *trace == 0 {
		if out, err = w.runIn(cfg, filepath.Join(dir, "untraced"), nil); err != nil {
			return err
		}
		res = endToEndResult(out)
	} else {
		base, err := w.runIn(cfg, filepath.Join(dir, "untraced"), nil)
		if err != nil {
			return err
		}
		rec := newRecorder()
		if out, err = w.runIn(cfg, filepath.Join(dir, "traced"), rec); err != nil {
			return err
		}
		res = perLayerResult(out, base)
		if base.checkErr != nil {
			res.Correct = false
		}
		spansPath = filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(spansPath, rec.snapshot()); err != nil {
			return err
		}
	}

	record := map[string]any{"workload": w.name, "seed": *seed, "env": out.env, "digests": out.digests}
	if spansPath != "" {
		record["spans"] = spansPath
	}
	if out.checkErr != nil {
		record["check_error"] = out.checkErr.Error()
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errCheck
	}
	return nil
}

func endToEndResult(o *outcome) result {
	v := map[string]float64{
		"interactions_per_s": o.throughput,
		"ack_p50_ms":         ms(o.ackP50),
		"ack_p90_ms":         ms(o.ackP90),
		"setup_s":            median(o.setups).Seconds(),
		"max_rss_mb":         o.maxRSSMB,
	}
	return newResult(o, endToEnd, v)
}

// perLayerResult completes the traced run's layer values with the ones
// every workload shares; base is the untraced run made just before.
func perLayerResult(o, base *outcome) result {
	v := o.layers
	v["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	v["runtime.gc_cpu_frac"] = ratio(o.runtime.gcCPU, o.runtime.totalCPU)
	v["runtime.alloc_bytes_per_interaction"] = ratio(float64(o.runtime.allocBytes), o.interactions)
	v["disk.fsync_probe_us"] = o.env.FsyncProbeUs
	v["trace.overhead_frac"] = 1 - ratio(o.throughput, base.throughput)
	return newResult(o, perLayer, v)
}

func newResult(o *outcome, defs []metricDef, v map[string]float64) result {
	res := result{
		Correct:   o.checkErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
	return res
}
