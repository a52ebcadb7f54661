package scenario

// Community-structured contacts: nodes are partitioned into communities
// and each interaction is intra-community with probability pIntra
// (uniform over all within-community pairs) and inter-community otherwise
// (uniform over all cross-community pairs). This generalises the paper's
// open question 3 beyond per-node weights: contact skew here is a
// property of node *groups*, the shape reported for human and animal
// contact networks (Girvan & Newman, PNAS 2002).

import (
	"fmt"

	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// Community is the clustered contact model. Nodes are numbered
// consecutively by community: sizes [3, 2] puts nodes 0-2 in community 0
// and nodes 3-4 in community 1.
type Community struct {
	sizes  []int
	starts []int // community -> first node id
	n      int
	pIntra float64

	intraPairs []int // community -> s(s-1)/2
	totalIntra int
	totalInter int // ordered cross-community picks: Σ_c s_c·(n - s_c)
}

var _ Model = (*Community)(nil)

// NewCommunity validates the partition: at least one community, no empty
// communities, at least 2 nodes in total, pIntra in [0, 1].
func NewCommunity(sizes []int, pIntra float64) (*Community, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("scenario: community model needs at least one community")
	}
	if !(pIntra >= 0 && pIntra <= 1) { // negated form also rejects NaN
		return nil, fmt.Errorf("scenario: intra-community probability %v outside [0, 1]", pIntra)
	}
	m := &Community{
		sizes:      append([]int(nil), sizes...),
		starts:     make([]int, len(sizes)),
		pIntra:     pIntra,
		intraPairs: make([]int, len(sizes)),
	}
	for c, s := range m.sizes {
		if s < 1 {
			return nil, fmt.Errorf("scenario: community %d is empty (size %d)", c, s)
		}
		m.starts[c] = m.n
		m.n += s
		m.intraPairs[c] = s * (s - 1) / 2
		m.totalIntra += m.intraPairs[c]
	}
	if m.n < 2 {
		return nil, fmt.Errorf("scenario: community model needs at least 2 nodes, got %d", m.n)
	}
	for _, s := range m.sizes {
		m.totalInter += s * (m.n - s)
	}
	return m, nil
}

// EvenSizes splits n nodes into k communities as evenly as possible (the
// first n mod k communities get the extra node).
func EvenSizes(n, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("scenario: need at least one community, got %d", k)
	}
	if n < k {
		return nil, fmt.Errorf("scenario: %d nodes cannot fill %d communities", n, k)
	}
	sizes := make([]int, k)
	for c := range sizes {
		sizes[c] = n / k
		if c < n%k {
			sizes[c]++
		}
	}
	return sizes, nil
}

// Name implements Model.
func (m *Community) Name() string { return "community" }

// N implements Model.
func (m *Community) N() int { return m.n }

// Generator implements Model.
func (m *Community) Generator(src *rng.Source) func(t int) seq.Interaction {
	return func(int) seq.Interaction {
		intra := m.totalInter == 0 ||
			(m.totalIntra > 0 && src.Bernoulli(m.pIntra))
		if intra {
			return m.pickIntra(src)
		}
		return m.pickInter(src)
	}
}

// pickIntra draws uniformly over all within-community pairs.
func (m *Community) pickIntra(src *rng.Source) seq.Interaction {
	k := src.Intn(m.totalIntra)
	for c, pairs := range m.intraPairs {
		if k >= pairs {
			k -= pairs
			continue
		}
		i, j := rng.PairAt(m.sizes[c], uint64(k))
		base := m.starts[c]
		return seq.Interaction{U: graph.NodeID(base + i), V: graph.NodeID(base + j)}
	}
	panic("scenario: intra pair index out of range") // unreachable
}

// pickInter draws uniformly over all cross-community pairs by drawing an
// ordered pick (u from community c, v outside c) and canonicalising.
func (m *Community) pickInter(src *rng.Source) seq.Interaction {
	k := src.Intn(m.totalInter)
	for c, s := range m.sizes {
		picks := s * (m.n - s)
		if k >= picks {
			k -= picks
			continue
		}
		out := m.n - s
		u := m.starts[c] + k/out
		v := k % out
		// v counts nodes outside community c in id order; skip over the
		// community's contiguous id range.
		if v >= m.starts[c] {
			v += s
		}
		a, b := graph.NodeID(u), graph.NodeID(v)
		if a > b {
			a, b = b, a
		}
		return seq.Interaction{U: a, V: b}
	}
	panic("scenario: inter pair index out of range") // unreachable
}
