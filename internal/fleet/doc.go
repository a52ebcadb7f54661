// Package fleet coordinates a multi-process sweep: one coordinator owns
// the grid's shard partition table and hands shard leases to workers
// over a small HTTP/JSON protocol; workers execute shards through the
// checkpointed sweep service and heartbeat while they run.
//
// # Protocol
//
// All requests and responses are JSON. The coordinator serves:
//
//	POST /v1/lease      {"worker": name}
//	  → {"status":"lease", "shard":i, "shard_count":m, "lease_id":id,
//	     "ttl_ms":t, "dir":path, "grid":{...}}   a shard to run
//	  → {"status":"wait", "retry_ms":t}          all shards busy; ask again
//	  → {"status":"done"}                        every shard is complete
//	POST /v1/heartbeat  {"lease_id": id}
//	  → 200 {"status":"ok"}                      lease extended by one TTL
//	  → 410                                      lease revoked or unknown
//	POST /v1/complete   {"lease_id": id, "dir": path}
//	  → 200 {"status":"ok"}                      shard recorded complete
//	  → 410                                      lease revoked or unknown
//	POST /v1/release    {"lease_id": id, "reason": s}
//	  → 200 {"status":"ok"}                      shard requeued immediately
//	  → 410                                      lease revoked or unknown
//	GET  /v1/status
//	  → FleetStatus                              per-shard state dashboard
//
// A lease expires when no heartbeat arrives for one TTL; the coordinator
// then requeues the shard and every later heartbeat or complete carrying
// the old lease id gets 410, which tells the stale worker to abandon the
// shard at its next checkpoint boundary. A worker whose run errors hands
// the lease back through /v1/release instead of making the shard wait
// out the TTL.
//
// # Durability and retries
//
// The coordinator journals its own state to Dir/coord.log, an
// append-only internal/recordlog log (crc32c-framed JSONL, one
// torn-record rule for every doda journal). Grants and completions are
// fsynced before they are committed in memory or acknowledged on the
// wire; requeues are appended best-effort, because replay order makes a
// later grant of the same shard supersede a lost requeue. A failed
// append stops the log until the next append cuts the partial record
// away, so no record ever lands behind damage. CoordinatorOptions.Resume
// rebuilds the partition table from that log: completed shards stay
// done, granted leases come back with their lease IDs intact and a fresh
// TTL (so workers that outlived the coordinator just keep heartbeating),
// and every other shard's checkpoint directory is scanned so work that
// finished while no coordinator was listening is adopted rather than
// redone.
//
// On the worker side every protocol call distinguishes transient
// failures (connection errors, timeouts, 5xx answers, garbled response
// bodies) from deliberate ones (410 Gone and other 4xx). Transient
// failures retry under WorkerOptions.Retry with exponential backoff and
// deterministic jitter — a pure function of the worker's retry seed, so
// a chaos schedule reproduces exactly — and only an exhausted budget
// against a coordinator the worker had already reached ends the loop
// (logged, exit nil: journaled work is durable and a resumed
// coordinator re-leases or adopts it). Response decoding is bounded and
// all-or-nothing: a hostile or truncated body errors without
// half-writing worker state.
//
// # Determinism
//
// Fleet output is byte-identical to a single-process run of the same
// grid regardless of which worker ran which shard, how work was
// scheduled, or how many times a shard was retried after a crash. The
// guarantee is inherited, not invented here: every cell's seed derives
// from the grid seed and cell index alone, shard membership is a pure
// function of cell index, every checkpoint directory is pinned to the
// grid's fingerprint, and a resumed shard replays its journal before
// running only the missing cells (or missing replicas, under per-replica
// granularity). The coordinator merges the shard checkpoints through the
// same sweepd.Merge every hand-driven shard run uses.
//
// Two processes must never journal into one shard directory at once.
// The lease protocol prevents it in the steady state — one live lease
// per shard — but a revoked worker only notices at a checkpoint
// boundary, so the lease TTL must comfortably exceed the wall time of
// the slowest cell (or replica, under per-replica checkpointing).
// Should both protections fail, the journal's O_EXCL tmp-file guard
// makes the overlap a loud error rather than silent corruption.
//
// Workers run shards in subdirectories of the coordinator's root
// directory, so this package assumes coordinator and workers share a
// filesystem (one host, or a shared mount). The protocol itself carries
// paths, not journal bytes; a byte-shipping transport can be layered on
// later without changing the lease mechanics.
package fleet
