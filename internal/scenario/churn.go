package scenario

// Node churn: each node is an independent two-state availability chain
// (online/offline) and interactions produced by an inner contact model
// are filtered to pairs of online nodes — offline nodes simply do not
// meet anyone, the dominant failure shape of peer-to-peer and sensor
// deployments (Stutzbach & Rejaie, IMC 2006). Because the DODA model
// forbids a node from participating after transmitting anyway, churn
// composes cleanly: an offline data owner just holds its datum until it
// comes back.

import (
	"fmt"

	"doda/internal/rng"
	"doda/internal/seq"
)

// Churn decorates an inner Model with node availability.
type Churn struct {
	inner           Model
	pFail, pRecover float64
}

var _ Model = (*Churn)(nil)

// NewChurn validates the availability chain: pFail in [0, 1], pRecover in
// (0, 1] (a node that can never recover would silence its datum forever,
// making every workload unwinnable).
func NewChurn(inner Model, pFail, pRecover float64) (*Churn, error) {
	if inner == nil {
		return nil, fmt.Errorf("scenario: churn needs an inner contact model")
	}
	if !(pFail >= 0 && pFail <= 1) { // negated form also rejects NaN
		return nil, fmt.Errorf("scenario: failure probability %v outside [0, 1]", pFail)
	}
	if !(pRecover > 0 && pRecover <= 1) {
		return nil, fmt.Errorf("scenario: recovery probability %v outside (0, 1]", pRecover)
	}
	return &Churn{inner: inner, pFail: pFail, pRecover: pRecover}, nil
}

// Name implements Model.
func (m *Churn) Name() string { return "churn(" + m.inner.Name() + ")" }

// N implements Model.
func (m *Churn) N() int { return m.inner.N() }

// Generator implements Model. All nodes start online; the inner model
// draws from an independent sub-stream split off src so that churn and
// contacts do not perturb each other's randomness.
func (m *Churn) Generator(src *rng.Source) func(t int) seq.Interaction {
	n := m.inner.N()
	innerGen := m.inner.Generator(src.Split())
	online := make([]bool, n)
	up := make([]int, n) // node ids currently online
	down := make([]int, 0, n)
	for u := range online {
		online[u] = true
		up[u] = u
	}
	failSkip, recoverSkip := geomSkipFor(m.pFail), geomSkipFor(m.pRecover)
	var idx, moved []int
	move := func(from, to *[]int, flips []int, on bool) {
		mark := len(*to)
		*from, *to, moved = moveFlipped(*from, *to, flips, moved)
		for _, id := range (*to)[mark:] {
			online[id] = on
		}
	}
	// tick moves the fails first: like the edge-Markovian deaths, they
	// land beyond every index the recoveries drew.
	tick := func() {
		idx = failSkip.indices(src, len(up), idx[:0])
		fails := len(idx)
		idx = recoverSkip.indices(src, len(down), idx)
		move(&up, &down, idx[:fails], false)
		move(&down, &up, idx[fails:], true)
	}
	// revive fast-forwards the availability chains to their next
	// recovery when fewer than two nodes are online. Offline nodes share
	// pRecover, so the first to recover is uniform among them — sampling
	// it directly keeps even tiny recovery probabilities O(1) per
	// interaction instead of spinning ~1/(offline·pRecover) ticks.
	revive := func() {
		for len(up) < 2 {
			idx = append(idx[:0], src.Intn(len(down)))
			move(&down, &up, idx, true)
		}
	}
	innerT := 0
	return func(int) seq.Interaction {
		tick()
		for {
			revive()
			// Resample the inner model until it meets two online nodes;
			// periodically advance the availability chains so a draw
			// always becomes possible (eventually every node is online,
			// and then any inner draw is valid).
			for attempt := 0; attempt < 64; attempt++ {
				it := innerGen(innerT)
				innerT++
				if online[it.U] && online[it.V] {
					return it
				}
			}
			tick()
		}
	}
}
