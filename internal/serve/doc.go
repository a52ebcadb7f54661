// Package serve is the continuous aggregation service: a long-running
// server multiplexing many concurrent DODA aggregation instances over the
// push-mode engine (core.Begin/Feed/Finish), in the style of continuous
// aggregate queries over a dynamic graph. Interactions arrive as a live
// stream — JSONL over HTTP or in-process Ingest calls — are journaled,
// queued, and applied asynchronously by one worker goroutine per
// instance, which acknowledges completion through a Handle.
//
// # Ingest format
//
// An HTTP ingest body is JSONL: each non-empty line is one interaction,
// a JSON object with integer "u" and "v" fields, read as encoding/json
// reads it into a struct (key case, key order, whitespace and other keys
// as encoding/json allows). The compact line serveclient writes,
// {"u":3,"v":7} with at most 9 digits per id and no sign, leading zero
// or whitespace, is parsed by hand; every other line goes to
// encoding/json. So both paths accept the same lines, decode the same
// values and report the same errors, which FuzzIngestLine checks
// against encoding/json. Any non-empty ?wait= value makes the request
// wait until its batch is applied.
//
// # Buffers
//
// The HTTP handler owns the slice an ingest body decodes into. It takes
// the slice and the Scanner's line buffer from a pool, and gives the line
// buffer back when it returns. The slice goes back only after a waited
// ingest's batch was applied and acknowledged: by then the worker has
// dropped it, a WAL rotation re-journals only batches still queued, and
// a duplicate was never queued. An unwaited ingest, or one that fails,
// leaves its slice to the garbage collector, since its batch may still
// be queued; so does one grown past 65,536 interactions. In-process
// callers of Ingest and TryIngest keep their own slices: the server
// never reuses them.
//
// # Durability contract
//
// Every instance owns a write-ahead log of internal/recordlog records
// (the frame and torn-record rule every doda journal shares) in its own
// directory: a header record naming the instance configuration, a state
// record holding a core.EngineState snapshot, then one record per
// accepted ingest batch. The acknowledgement order is strict:
//
//	admission (queue slot reserved) → WAL append + fsync → enqueue → ack
//
// so an acknowledged batch is durable before the caller learns about it,
// and a batch that was refused admission is never journaled. Periodically
// the worker rotates the log: a new generation file is published
// atomically (recordlog.Publish: tmp + fsync + rename + directory fsync)
// holding the current engine snapshot plus all journaled-but-unapplied
// batches, and only after the new generation is durable are older
// generations deleted. Recovery therefore always finds a complete
// generation: the newest one that parses wins, a torn tail (the unsynced
// last append of a crash) is dropped and repaired, and a generation cut
// short before its header and state falls back to its still-present
// predecessor. Damage anywhere else, or an intact record recovery
// rejects, stops recovery with an error naming the instance and leaves
// its directory alone: only a directory holding no generation, or only
// generation 0 cut short, is a never-acknowledged registration and is
// swept. Replaying the snapshot plus the
// ingest tail reproduces the engine state byte-for-byte — Feed is
// deterministic — which the chaos tests assert by diffing EngineState
// JSON against an uninterrupted run.
//
// Exactly-once across retries: callers may stamp batches with a
// contiguous sequence number. A batch at or below the journaled sequence
// is acknowledged idempotently without re-journaling (the retry after a
// lost ack), a gap is rejected. Unstamped batches are assigned the next
// sequence and are at-least-once under retries.
//
// # Backpressure and admission control
//
// Each instance has a bounded pending-operation budget (Options
// MaxPending). Admission is per instance, so one hot instance exhausts
// only its own budget and cannot starve the rest. When the budget is
// full, TryIngest fails fast with ErrBackpressure — the HTTP ingest
// endpoint translates it to 429 Too Many Requests with a Retry-After
// header — while the in-process Ingest blocks until a slot frees or its
// context expires. Nothing is silently dropped: every accepted batch is
// acknowledged, every refused batch is refused loudly.
//
// # Eviction and density
//
// A server is built to hold thousands of registered instances while
// only a bounded working set holds engine memory. Two knobs gate the
// working set (both require a durability directory): MaxLiveInstances
// is a hard cap — registering or rehydrating past it evicts the
// least-recently-touched live instance first — and IdleTTL lets the
// watchdog evict instances untouched for that long. Eviction is
// invisible to clients: the instance's queue is flushed, a final
// rotation journals its snapshot (skipped when nothing was applied —
// every acknowledged batch is already durable in the WAL tail, so a
// failed or skipped rotation degrades to replay cost, never data
// loss), and the engine's arena-backed state is released in O(1). The
// instance stays registered in the "evicted" state (mem_bytes 0 in
// /v1/status, which reports live/evicted/total counts) and the next
// ingest, state read, or result call rehydrates it from its journal —
// byte-identical, with the seq contract intact, so a duplicate retry
// that lands on an evicted instance re-acks exactly as a live one
// would. Cold recovery honors the cap too: a restart over thousands of
// journaled instances validates every journal but hydrates only up to
// MaxLiveInstances engines, bringing the rest up evicted.
//
// Live engine memory is arena-backed (core.Config.Arena): one
// contiguous block per instance sized exactly from (n, provenance
// mode), so a host's memory budget divides cleanly into an instance
// budget — the serve_density section of BENCH_hotpath.json commits the
// measured bytes/instance and instances/GB. A full-provenance arena
// holds n·⌈n/64⌉ words, so Register (and the HTTP endpoint over it)
// refuses any n above a fixed ceiling of 16384 nodes, where the arena
// is 32 MiB; the HTTP answer is a 400 naming the limit.
//
// # Failure model
//
// A panic in an instance worker is recovered: the instance is marked
// failed (its queued handles resolve with the failure), the server and
// every other instance keep running. A watchdog marks instances that
// hold pending work without progress for Options.StallTimeout as
// stalled in the status report. A WAL append failure (e.g. injected
// ENOSPC) wedges only the write path: the instance refuses further
// admissions with ErrWAL until the worker rewrites the log as a fresh
// generation, after which admission resumes — the torn tail it leaves
// behind was never acknowledged, so recovery semantics are unchanged.
// Drain performs the graceful SIGTERM sequence: stop admissions, flush
// every queue, take a final snapshot rotation, close the logs.
package serve
