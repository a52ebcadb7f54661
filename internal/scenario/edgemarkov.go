package scenario

// Edge-Markovian dynamic graphs — the standard stochastic dynamic-graph
// model in the literature (Clementi et al., PODC 2008): every potential
// edge is an independent two-state Markov chain that appears with
// probability pUp per step when absent and disappears with probability
// pDown per step when present. Each generated interaction is one step of
// the chain followed by a uniform draw among the currently alive edges,
// so contact patterns are temporally correlated: an edge that exists now
// tends to keep existing (bursty repeated contacts), unlike the
// memoryless uniform adversary.

import (
	"fmt"

	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// EdgeMarkovian is the per-edge birth/death contact model.
type EdgeMarkovian struct {
	n          int
	pUp, pDown float64
}

var _ Model = (*EdgeMarkovian)(nil)

// NewEdgeMarkovian validates the parameters: n >= 2, probabilities in
// [0, 1], and pUp > 0 (a chain that can never create edges would leave
// the generator with nothing to emit).
func NewEdgeMarkovian(n int, pUp, pDown float64) (*EdgeMarkovian, error) {
	if n < 2 {
		return nil, fmt.Errorf("scenario: edge-markovian needs at least 2 nodes, got %d", n)
	}
	if !(pUp > 0 && pUp <= 1) { // negated form also rejects NaN
		return nil, fmt.Errorf("scenario: edge birth probability %v outside (0, 1]", pUp)
	}
	if !(pDown >= 0 && pDown <= 1) {
		return nil, fmt.Errorf("scenario: edge death probability %v outside [0, 1]", pDown)
	}
	if n > maxEdgeMarkovianN {
		return nil, fmt.Errorf("scenario: edge-markovian takes at most %d nodes, got %d", maxEdgeMarkovianN, n)
	}
	return &EdgeMarkovian{n: n, pUp: pUp, pDown: pDown}, nil
}

// maxEdgeMarkovianN is the largest n whose n(n-1)/2 edge ids fit in the
// generator's int32 entries.
const maxEdgeMarkovianN = 1 << 16

// Name implements Model.
func (m *EdgeMarkovian) Name() string { return "edge-markovian" }

// N implements Model.
func (m *EdgeMarkovian) N() int { return m.n }

// emGen is the mutable chain state of one generated sequence.
type emGen struct {
	src        *rng.Source
	up, down   *geomSkip         // birth and death skips
	pairs      []seq.Interaction // edge id -> endpoints
	live, dead []int32           // edge ids by state
	idx, moved []int             // reused flip buffers
}

// Generator implements Model. The chain starts in its stationary
// distribution (each edge alive with probability pUp/(pUp+pDown)) so the
// sequence has no warm-up transient.
func (m *EdgeMarkovian) Generator(src *rng.Source) func(t int) seq.Interaction {
	edges := m.n * (m.n - 1) / 2
	g := &emGen{
		src:   src,
		up:    geomSkipFor(m.pUp),
		down:  geomSkipFor(m.pDown),
		pairs: make([]seq.Interaction, 0, edges),
	}
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			g.pairs = append(g.pairs, seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	pStat := m.pUp / (m.pUp + m.pDown)
	born := bernoulliIndices(src, edges, pStat, nil)
	next := 0
	for id := 0; id < edges; id++ {
		if next < len(born) && born[next] == id {
			next++
			g.live = append(g.live, int32(id))
		} else {
			g.dead = append(g.dead, int32(id))
		}
	}
	return func(int) seq.Interaction {
		g.tick()
		if len(g.live) == 0 {
			// No live edge: fast-forward the chain to its next birth.
			// Dead edges share pUp, so the first edge born in that wait
			// is uniform over them — sample it directly instead of
			// spinning ~1/(edges·pUp) ticks, which keeps even tiny
			// birth probabilities O(1) per interaction.
			g.idx = append(g.idx[:0], g.src.Intn(len(g.dead)))
			g.dead, g.live, g.moved = moveFlipped(g.dead, g.live, g.idx, g.moved)
		}
		return g.pairs[g.live[g.src.Intn(len(g.live))]]
	}
}

// tick advances every edge chain one step: i.i.d. Bernoulli flips over the
// live set (deaths) and the dead set (births), both evaluated against the
// state at the start of the step. The deaths are moved first; they land
// beyond every index the births drew, so the births still find their
// entries where they were drawn.
func (g *emGen) tick() {
	g.idx = g.down.indices(g.src, len(g.live), g.idx[:0])
	deaths := len(g.idx)
	g.idx = g.up.indices(g.src, len(g.dead), g.idx)
	g.live, g.dead, g.moved = moveFlipped(g.live, g.dead, g.idx[:deaths], g.moved)
	g.dead, g.live, g.moved = moveFlipped(g.dead, g.live, g.idx[deaths:], g.moved)
}
