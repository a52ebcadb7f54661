package main

// The serve load generator behind the hot-path suite: drives an
// in-process serve.Server the way dodaserve's HTTP handler does —
// concurrent instances, batched Ingest, acknowledged handles — without a
// WAL, and reports the regression-gated ns/op and ingest throughput.
// perfbench's ingest-durable workload measures the durable path, layer
// by layer.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
	"doda/internal/serve"
)

// serveLoadReport is the serve_load section of BENCH_hotpath.json.
type serveLoadReport struct {
	Instances        int     `json:"instances"`
	BatchesPerInst   int     `json:"batches_per_instance"`
	OpsPerBatch      int     `json:"ops_per_batch"`
	TotalOps         int     `json:"total_ops"`
	EphemeralNsPerOp float64 `json:"ephemeral_ns_per_op"`
	EphemeralPerSec  float64 `json:"ephemeral_ops_per_sec"`
}

// serveWorkload builds batches of off-sink interactions: the waiting
// algorithm transfers only at sink meetings, so these instances ingest
// forever without terminating — a steady-state ingest treadmill.
func serveWorkload(n, batches, perBatch int, seed uint64) [][]seq.Interaction {
	r := rng.New(seed)
	out := make([][]seq.Interaction, batches)
	for b := range out {
		batch := make([]seq.Interaction, perBatch)
		for i := range batch {
			u := 1 + int(r.Uint64()%uint64(n-1))
			v := 1 + int(r.Uint64()%uint64(n-2))
			if v >= u {
				v++
			}
			batch[i] = seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)}
		}
		out[b] = batch
	}
	return out
}

// serveLoadTrial feeds every instance its workload concurrently, waiting
// for each batch's ack, and returns the elapsed wall time.
func serveLoadTrial(srv *serve.Server, instances int, workload [][]seq.Interaction) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	insts := make([]*serve.Instance, instances)
	for i := range insts {
		inst, err := srv.Register(serve.InstanceConfig{
			Name: fmt.Sprintf("load-%d", i), N: 256, Algorithm: "waiting", Agg: "min",
		})
		if err != nil {
			return 0, err
		}
		insts[i] = inst
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for _, inst := range insts {
		wg.Add(1)
		go func(inst *serve.Instance) {
			defer wg.Done()
			for _, batch := range workload {
				h, err := inst.Ingest(ctx, batch, 0)
				if err == nil {
					err = h.Wait(ctx)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(inst)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	return elapsed, nil
}

// benchServeLoad measures the continuous-aggregation server under
// concurrent load: instances × batches through the full admission →
// apply → ack path, the fastest of a few trials for a stable gated ns/op.
func benchServeLoad() (serveLoadReport, error) {
	const (
		instances = 4
		batches   = 150
		perBatch  = 64
		trials    = 3
	)
	workload := serveWorkload(256, batches, perBatch, 9)
	totalOps := instances * batches * perBatch

	minEphemeral := time.Duration(1 << 62)
	for i := 0; i < trials; i++ {
		srv, err := serve.NewServer(serve.Options{})
		if err != nil {
			return serveLoadReport{}, err
		}
		elapsed, err := serveLoadTrial(srv, instances, workload)
		srv.Close()
		if err != nil {
			return serveLoadReport{}, fmt.Errorf("ephemeral trial: %w", err)
		}
		if elapsed < minEphemeral {
			minEphemeral = elapsed
		}
	}

	rep := serveLoadReport{
		Instances:      instances,
		BatchesPerInst: batches,
		OpsPerBatch:    perBatch,
		TotalOps:       totalOps,
	}
	if minEphemeral > 0 {
		rep.EphemeralNsPerOp = float64(minEphemeral.Nanoseconds()) / float64(totalOps)
		rep.EphemeralPerSec = float64(totalOps) / minEphemeral.Seconds()
	}
	return rep, nil
}
