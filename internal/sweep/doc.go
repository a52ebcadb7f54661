// Package sweep is the sharded parameter-sweep engine: it expands a
// grid of (scenario × algorithm × node count × seed replicas) over the
// scenario registry into cells, shards the cells across a bounded
// worker pool, and aggregates per-cell statistics. Runner, which plays
// one replica of a generative model, is the per-replica body of every
// generative cell and of the experiments' uniform-adversary loops.
//
// # Determinism and seed derivation
//
// Determinism is the load-bearing property: every cell derives its seed
// from the grid seed and the cell's index alone (one splitmix64 step —
// see cellSeed), and every replica's seed from the cell seed alone, so
// the results are bit-for-bit identical no matter how many workers run
// the sweep or which worker picks up which cell. Cell identity (index,
// seed) is fixed by the full grid before any selection, which is why a
// shard or a resumed subset reproduces exactly the cells an unsharded
// run would have produced.
//
// # Ordering and streaming
//
// Run returns results in cell-index order and delivers them to
// Options.OnResult in that order as soon as each cell and all its
// predecessors have completed, buffering out-of-order completions. An
// OnResult error latches and aborts the sweep: a cell nobody could
// record must never be silently lost.
//
// # Sharding and totals
//
// ShardOf hashes the cell index with a fixed splitmix64 step into m
// disjoint shards, so m independent processes or hosts cover the grid
// exactly once (hashing rather than striding spreads the expensive
// large-n cells evenly). TotalsOf folds the exact per-cell Welford
// accumulators in cell-index order — the order Run uses — which is what
// makes resumed and merged totals bit-identical to an uninterrupted
// run's.
//
// # Performance
//
// Workers reuse one core.Engine each (via Engine.Reset) plus per-worker
// sample buffers, so the steady-state measurement loop does not
// allocate; Grid.Provenance defaults to "auto", dropping from full
// bitset provenance to count-only at AutoProvenanceThreshold nodes.
// Cells on generative scenarios play each replica through
// Runner.Replica, caching nothing: a model that is a scenario.Screener
// (uniform) plays through its screened adversary, which hands the engine
// only interactions between two data owners, and any other model feeds
// the engine from its generator (adversary.Generated). A waiting-greedy
// replica's meetTime oracle scans a second generator built from the same
// model and replica seed. Only full-knowledge cells, which need random
// access to the whole sequence, and trace replay run on spec.Build's
// cached stream, on the worker's engine.
//
// ReadResults decodes the JSONL stream cmd/dodasweep writes back into
// typed results, so saved output can feed internal/analysis without
// re-running the grid.
package sweep
