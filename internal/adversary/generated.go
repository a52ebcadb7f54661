package adversary

// Generated is the zero-overhead cousin of Oblivious: it feeds a
// generator's interactions straight to the engine without materialising
// them in a seq.Stream. Stream-backed adversaries cache every emitted
// interaction so knowledge oracles can look ahead consistently — O(T)
// memory and an amortised append per interaction. Algorithms that use no
// look-ahead (Waiting, Gathering, the whole D∅ODA class) don't need any
// of that, nor does Waiting Greedy, whose meetTime oracle can scan a
// second generator built from the same model and seed; sweep fleets run
// millions of interactions per cell, so the caching would dominate the
// measurement loop's allocation profile.

import (
	"fmt"

	"doda/internal/core"
	"doda/internal/seq"
)

// Generated adapts a raw generator function into an oblivious adversary
// with no sequence caching. Use it on hot measurement paths where no
// knowledge oracle needs random access to the sequence (a meetTime
// oracle can scan its own generator: knowledge.WithMeetTimeGen); use
// Oblivious + seq.Stream when oracles must read the sequence at will.
type Generated struct {
	name string
	n    int
	gen  func(t int) seq.Interaction
}

var (
	_ core.Adversary      = (*Generated)(nil)
	_ core.BatchAdversary = (*Generated)(nil)
)

// NewGenerated wraps gen, which must produce valid interactions over n
// nodes for t = 0, 1, 2, ... exactly as seq.NewStream would consume them.
func NewGenerated(name string, n int, gen func(t int) seq.Interaction) (*Generated, error) {
	if n < 2 {
		return nil, fmt.Errorf("adversary: need at least 2 nodes, got %d", n)
	}
	if gen == nil {
		return nil, fmt.Errorf("adversary: nil generator")
	}
	if name == "" {
		name = "generated"
	}
	return &Generated{name: name, n: n, gen: gen}, nil
}

// Name returns the adversary's display name.
func (g *Generated) Name() string { return g.name }

// N returns the node count of the generated workload.
func (g *Generated) N() int { return g.n }

// Next returns the generated interaction at time t; the sequence is
// unbounded.
func (g *Generated) Next(t int, _ core.ExecView) (seq.Interaction, bool) {
	return g.gen(t), true
}

// NextBatch implements core.BatchAdversary: one buffer fill per engine
// round trip instead of one interface call per interaction. The engine
// may stop mid-batch (termination, failure, the interaction cap), so the
// generator can be advanced past the last interaction actually played —
// fine for the measurement loops this type serves, where every run wraps
// a fresh seeded generator, but callers sharing one generator across runs
// that must match the scalar path bit-for-bit should not reuse it after a
// batched run.
func (g *Generated) NextBatch(t int, _ core.ExecView, buf []seq.Interaction) int {
	gen := g.gen
	for i := range buf {
		buf[i] = gen(t + i)
	}
	return len(buf)
}
