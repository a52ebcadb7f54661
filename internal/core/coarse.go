package core

// Coarse-state batching: the contract that lets *adaptive* adversaries
// join the batched fast path, plus the word-parallel ownership prescreen
// shared with the concurrent runtime.
//
// The paper's adaptive online adversary may read the whole past
// execution, which forces one Next call per interaction — the engine
// cannot know what the adversary would have emitted after a transfer it
// has not played yet. But several adaptive adversaries (owner-pair
// samplers, the Theorem-1/3 families) only ever read *coarse* ownership
// state: which nodes still own data, and how many. Between two
// transfers that state is frozen, so every interaction the adversary
// would emit is already determined at the previous transfer. The
// CoarseBatchAdversary contract exploits exactly that window: the engine
// drains a batch against the current state, consumes it until the
// ownership state changes, then throws the rest away and re-drains. For
// a pure implementation the replay is invisible: the consumed prefix is
// byte-identical to what the scalar path would have played.

import (
	"math/bits"

	"doda/internal/bitset"
	"doda/internal/seq"
)

// WordView extends ExecView with the packed ownership bitset, the coarse
// state coarse-batching adversaries and word-parallel prescreens key on.
// Bit u of OwnerWords() is set iff node u currently owns data.
type WordView interface {
	ExecView
	// OwnerWords returns the ownership bitset as packed 64-bit words
	// (bit u at words[u/64] bit u%64). The slice aliases live execution
	// state: it is only valid until the next transfer, and callers must
	// not mutate it.
	OwnerWords() []uint64
}

// CoarseBatchAdversary is the adaptive analogue of BatchAdversary, for
// adversaries whose emissions are a pure function of the time index and
// the coarse ownership state (owner count / ownership words) — not of
// the full execution history.
//
// The purity requirement is load-bearing: the engine consumes a drained
// batch only up to (and including) the first interaction that changes
// the ownership state, discards the rest, and calls NextCoarseBatch
// again from the new state. Implementations must therefore emit the
// same interactions for the same (t, ownership state) regardless of how
// many times or in what batch sizes they are asked — no internal
// counters, no caching keyed on call order, no randomness that is not
// derived from (seed, t, state).
type CoarseBatchAdversary interface {
	Adversary
	// NextCoarseBatch fills buf with the interactions at times t, t+1,
	// ..., computed against the ownership state in view at call time,
	// and returns how many it produced. Returning k < len(buf) means
	// the sequence is exhausted after those k interactions *under the
	// current state* (k may be 0). The engine may consume any prefix.
	NextCoarseBatch(t int, view WordView, buf []seq.Interaction) int
}

// PrescreenBoth computes, word-parallel over the ownership bitset, which
// interactions of batch still have both endpoints owning data. Bit i of
// mask is set iff batch[i] is "active"; tail bits beyond len(batch) are
// zeroed. It returns the number of active interactions.
//
// Ownership is monotone within a run (true → false only), so a batch
// prescreened against the state at drain time stays sound as the batch
// is consumed: an interaction screened out now can never become active
// later. Screened-out interactions still count as interactions — they
// are no-ops for every algorithm because Decide is only consulted when
// both endpoints own data — which is what makes it sound to skip their
// dispatch entirely. The engine skips the same interactions, one at a
// time, in its own loops (Engine.plays), after checking each is a
// canonical pair of [0, n); a ScreenedAdversary skips them before the
// engine sees them and vouches for their range itself, and the engine
// checks only the owner pair it is handed. (Observer algorithms see
// every interaction and must not be prescreened; callers gate on that.)
//
// mask must have at least (len(batch)+63)/64 words. words is indexed by
// node id; callers guarantee batch is canonical and in range.
func PrescreenBoth(words []uint64, batch []seq.Interaction, mask []uint64) int {
	active := 0
	for base := 0; base < len(batch); base += 64 {
		end := len(batch) - base
		if end > 64 {
			end = 64
		}
		var m uint64
		for i := 0; i < end; i++ {
			it := batch[base+i]
			if bitset.TestWord(words, int(it.U)) && bitset.TestWord(words, int(it.V)) {
				m |= 1 << uint(i)
			}
		}
		mask[base>>6] = m
		active += bits.OnesCount64(m)
	}
	return active
}
