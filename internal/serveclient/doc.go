// Package serveclient is the Go client for dodaserve's HTTP API: it
// wraps registration, batched ingest, state reads, and removal behind a
// retrying transport so callers get the server's exactly-once contract
// without hand-rolling sequence numbers or backoff.
//
// # Idempotency contract
//
// Every ingest a Stream sends is stamped with a client-side sequence
// number (the server's ?seq= protocol). The server journals a batch
// before acknowledging it and treats a re-send of an acknowledged
// sequence as a duplicate to ack again, not re-apply. That makes every
// retry the client issues — after a connection reset, a 5xx, a dropped
// response, or a 429 — safe: a batch is applied exactly once no matter
// how many times the wire delivered it, and a Flush that ultimately
// fails can be called again without risking double-application. The
// chaos tests pin this end to end: a client sweep through injected
// transport faults must leave the server with EngineState byte-identical
// to a fault-free run.
//
// # Retry policy
//
// RetryPolicy is the fleet worker's policy (internal/retry): bounded
// attempts, exponential backoff from Base doubling to Max, each delay
// jittered deterministically into [d/2, d) as a pure function of (seed,
// call, attempt) so client fleets never retry in lockstep. Transient
// outcomes — transport errors, 5xx, garbled 2xx bodies — consume
// attempts; 429 responses also consume attempts but wait at least the
// server's Retry-After hint first, because they are flow control, not
// failure. Any other status is a deliberate answer and returned
// immediately as an *APIError.
//
// # Request bodies
//
// Feed encodes a batch as the compact JSONL lines {"u":3,"v":7} that the
// server parses without encoding/json. It counts the body's bytes first
// and builds it in one allocation of exactly that size, which every
// retry of the call re-sends. A 2xx answer the caller has no use for is
// drained, not buffered.
//
// # Response hardening
//
// Response decoding is all-or-nothing: bodies are read bounded, decoded
// into a fresh value, and copied into the caller's destination only on
// full success — a hostile or truncated response can produce an error
// but never a panic or a half-written struct (fuzzed by
// FuzzServeClientResponses).
package serveclient
