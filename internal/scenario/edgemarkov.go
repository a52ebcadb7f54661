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
	return &EdgeMarkovian{n: n, pUp: pUp, pDown: pDown}, nil
}

// Name implements Model.
func (m *EdgeMarkovian) Name() string { return "edge-markovian" }

// N implements Model.
func (m *EdgeMarkovian) N() int { return m.n }

// emGen is the mutable chain state of one generated sequence.
type emGen struct {
	src        *rng.Source
	up, down   *geomSkip         // birth and death skips
	pairs      []seq.Interaction // edge id -> endpoints
	pos        []int             // edge id -> index in live or dead
	live, dead []int             // edge ids by state
	scratch    []int             // reused flip buffer
	ids        []int             // reused flip buffer
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
		pos:   make([]int, edges),
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
			g.pos[id] = len(g.live)
			g.live = append(g.live, id)
		} else {
			g.pos[id] = len(g.dead)
			g.dead = append(g.dead, id)
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
			id := g.dead[g.src.Intn(len(g.dead))]
			g.remove(&g.dead, id)
			g.pos[id] = len(g.live)
			g.live = append(g.live, id)
		}
		return g.pairs[g.live[g.src.Intn(len(g.live))]]
	}
}

// tick advances every edge chain one step: i.i.d. Bernoulli flips over the
// live set (deaths) and the dead set (births), both evaluated against the
// state at the start of the step.
func (g *emGen) tick() {
	g.ids = g.ids[:0]
	g.scratch = g.down.indices(g.src, len(g.live), g.scratch[:0])
	for _, i := range g.scratch {
		g.ids = append(g.ids, g.live[i])
	}
	deaths := len(g.ids)
	g.scratch = g.up.indices(g.src, len(g.dead), g.scratch[:0])
	for _, i := range g.scratch {
		g.ids = append(g.ids, g.dead[i])
	}
	for _, id := range g.ids[:deaths] {
		g.remove(&g.live, id)
		g.pos[id] = len(g.dead)
		g.dead = append(g.dead, id)
	}
	for _, id := range g.ids[deaths:] {
		g.remove(&g.dead, id)
		g.pos[id] = len(g.live)
		g.live = append(g.live, id)
	}
}

// remove swap-deletes edge id from the slice it currently occupies.
func (g *emGen) remove(from *[]int, id int) {
	s := *from
	i, last := g.pos[id], len(s)-1
	s[i] = s[last]
	g.pos[s[i]] = i
	*from = s[:last]
}
