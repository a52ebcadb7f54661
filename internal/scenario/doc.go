// Package scenario is the workload-generation layer: deterministic,
// seedable dynamic-graph contact models that go beyond the paper's own
// adversaries. Where package adversary implements the constructions the
// paper analyses (uniform/weighted randomized, recurrent, the
// impossibility sequences), this package generates the workloads the
// wider dynamic-network literature evaluates against — edge-Markovian
// dynamic graphs, community-structured contact patterns, node churn,
// and replayed real-world contact traces.
//
// # Determinism and seed derivation
//
// Every model is a pure function of (n, params, seed): same model, same
// seed ⇒ bit-for-bit the same interaction sequence, across runs and
// platforms, exactly like the rest of the repository's randomness
// (package rng). Models never consult ambient state; all randomness
// flows from the rng.Source a caller hands the generator, which is how
// the sweep layer can re-run any single cell of a grid in isolation and
// get the identical sequence.
//
// # Geometric skipping
//
// The edge-Markovian and churn models flip every edge or node chain once
// per tick, so they draw Bernoulli trials by geometric skipping: one
// draw per success instead of one per trial. The skip K is the float
// path's floor(log(u)/log1p(-p)) for u = 1 - r/2⁵³, r the top 53 bits of
// one Uint64, and a table answers it for most draws without math.Log
// (geomskip.go). The table is exact by construction, not by tolerance:
// it answers only draws more than a guard band of 16 draws away from
// every step of K, where a few ulps of error in math.Log and the divide,
// worth at most about one draw, cannot change the floor. Every other
// draw, every bucket holding two or more steps or lying within the band
// of a step across its edge, and every probability below 2⁻¹³ takes the
// float path, and either way
// each trial makes exactly one Uint64 draw, so sequences are bit-for-bit
// those of the float path alone. A table takes 25–260 µs to build and
// holds 64 KiB, while a model costs nanoseconds and is built once just
// to validate a grid's parameters, so tables are built lazily, on the
// first generator that needs one, and shared through a bounded
// process-wide cache keyed by p: once per distinct probability, never
// per model or replica.
//
// # Live and dead sets
//
// The edge-Markovian generator keeps its edge ids in two slices, live
// and dead, and churn its node ids in up and down. Their orders are part
// of every sequence: the next interaction is the live entry at a drawn
// index, and a tick's flips are drawn as indices into the slices as
// they stood when the tick began. A tick moves the flipped entries in
// draw order, deaths (fails) before births (recoveries), each by
// swap-delete: the slice's last entry fills the hole and the flipped
// entry is appended to the other slice. The deaths land beyond every
// index the births drew, so applying them first moves nothing the births
// read.
//
// No index from entry to position is needed to find a flipped entry
// (moveFlipped in scenario.go). Swap-deletes only shorten a slice, so an
// entry whose start-of-pass index is below the current length still
// sits there, and one at or above it was carried out of the tail, into
// the hole of the removal that carried it, which a per-pass buffer
// records by tail position. With increasing indices nothing still to be
// removed is carried twice. Say E was: the removal of some R carried it
// from its hole h down into R's hole. R was carried there after E was
// carried to h (R is removed first, so its start index, its tail
// position, is the smaller), so the entry Q removed to make R's hole
// came after the one removed to make h, and its start index exceeds h.
// Q sat below h, so Q too had been carried, earlier than R and from a
// tail position above R's start index, yet Q was removed before R:
// against the increasing order.
//
// # Contract with the execution stack
//
// A Model is a generator of interactions that plugs into the existing
// stack unchanged: wrapped into a seq.Stream (so knowledge oracles can
// look ahead consistently) and exposed as an oblivious core.Adversary,
// or fed straight to the engine through adversary.Generated on the
// allocation-free fast path when no look-ahead is needed. Spec.Model is
// the generative fast path; Spec.Build the stream-backed general path
// (required for trace replay and for knowledge-consuming algorithms).
//
// The Registry (see registry.go) catalogues the built-in models with
// their parameters, defaults and citations; cmd/dodascen, the -scenario
// flags of the CLIs, and the sweep grid expander all resolve workloads
// through it, so adding one Spec lights a workload up across the whole
// stack. DefaultCap is the shared generous interaction budget for runs
// that must terminate.
package scenario
