package scenario

import (
	"math"
	"slices"
	"testing"

	"doda/internal/graph"
	"doda/internal/rng"
	"doda/internal/seq"
)

// The reference bookkeeping: the edge-Markovian and churn generators as
// they were with a position index, kept here so the index-free ones can
// be compared against them. Each reads its flipped ids through the index
// at the start of a pass, then removes them one by one by id.

// posRemoveAll swap-deletes from `from` the entries at the start indices
// idx, appending each to `to`, by way of an id -> position index.
func posRemoveAll(from, to []int, idx []int) ([]int, []int) {
	pos := map[int]int{}
	for i, id := range from {
		pos[id] = i
	}
	ids := make([]int, len(idx))
	for k, i := range idx {
		ids[k] = from[i]
	}
	for _, id := range ids {
		i, last := pos[id], len(from)-1
		from[i] = from[last]
		pos[from[i]] = i
		from = from[:last]
		to = append(to, id)
	}
	return from, to
}

// refEdgeMarkovian is EdgeMarkovian with the position-index generator.
type refEdgeMarkovian struct{ EdgeMarkovian }

func (m *refEdgeMarkovian) Generator(src *rng.Source) func(t int) seq.Interaction {
	edges := m.n * (m.n - 1) / 2
	up, down := geomSkipFor(m.pUp), geomSkipFor(m.pDown)
	pairs := make([]seq.Interaction, 0, edges)
	pos := make([]int, edges)
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			pairs = append(pairs, seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)})
		}
	}
	var live, dead, scratch, ids []int
	remove := func(from *[]int, id int) {
		s := *from
		i, last := pos[id], len(s)-1
		s[i] = s[last]
		pos[s[i]] = i
		*from = s[:last]
	}
	born := bernoulliIndices(src, edges, m.pUp/(m.pUp+m.pDown), nil)
	next := 0
	for id := 0; id < edges; id++ {
		if next < len(born) && born[next] == id {
			next++
			pos[id] = len(live)
			live = append(live, id)
		} else {
			pos[id] = len(dead)
			dead = append(dead, id)
		}
	}
	return func(int) seq.Interaction {
		ids = ids[:0]
		scratch = down.indices(src, len(live), scratch[:0])
		for _, i := range scratch {
			ids = append(ids, live[i])
		}
		deaths := len(ids)
		scratch = up.indices(src, len(dead), scratch[:0])
		for _, i := range scratch {
			ids = append(ids, dead[i])
		}
		for _, id := range ids[:deaths] {
			remove(&live, id)
			pos[id] = len(dead)
			dead = append(dead, id)
		}
		for _, id := range ids[deaths:] {
			remove(&dead, id)
			pos[id] = len(live)
			live = append(live, id)
		}
		if len(live) == 0 {
			id := dead[src.Intn(len(dead))]
			remove(&dead, id)
			pos[id] = len(live)
			live = append(live, id)
		}
		return pairs[live[src.Intn(len(live))]]
	}
}

// refChurn is Churn with the position-index generator.
type refChurn struct{ Churn }

func (m *refChurn) Generator(src *rng.Source) func(t int) seq.Interaction {
	n := m.inner.N()
	innerGen := m.inner.Generator(src.Split())
	online := make([]bool, n)
	up := make([]int, n)
	down := make([]int, 0, n)
	pos := make([]int, n)
	for u := range online {
		online[u] = true
		up[u] = u
		pos[u] = u
	}
	failSkip, recoverSkip := geomSkipFor(m.pFail), geomSkipFor(m.pRecover)
	var scratch, flips []int
	move := func(from *[]int, to *[]int, id int) {
		s := *from
		i, last := pos[id], len(s)-1
		s[i] = s[last]
		pos[s[i]] = i
		*from = s[:last]
		pos[id] = len(*to)
		*to = append(*to, id)
	}
	tick := func() {
		flips = flips[:0]
		scratch = failSkip.indices(src, len(up), scratch[:0])
		for _, i := range scratch {
			flips = append(flips, up[i])
		}
		fails := len(flips)
		scratch = recoverSkip.indices(src, len(down), scratch[:0])
		for _, i := range scratch {
			flips = append(flips, down[i])
		}
		for _, id := range flips[:fails] {
			move(&up, &down, id)
			online[id] = false
		}
		for _, id := range flips[fails:] {
			move(&down, &up, id)
			online[id] = true
		}
	}
	innerT := 0
	return func(int) seq.Interaction {
		tick()
		for {
			for len(up) < 2 {
				id := down[src.Intn(len(down))]
				move(&down, &up, id)
				online[id] = true
			}
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

// flipIndices derives a strictly increasing index set in [0, prefix)
// from shape and src: a Bernoulli(p) sample, none, all, a tail run, or
// the last index alone.
func flipIndices(src *rng.Source, shape uint8, prefix int, p float64) []int {
	var idx []int
	switch shape % 5 {
	case 0:
		idx = floatBernoulliIndices(src, prefix, p, nil)
	case 2:
		for i := 0; i < prefix; i++ {
			idx = append(idx, i)
		}
	case 3:
		for i := prefix - src.Intn(prefix+1); i < prefix; i++ {
			idx = append(idx, i)
		}
	case 4:
		if prefix > 0 {
			idx = []int{prefix - 1}
		}
	}
	return idx
}

// FuzzFlipBookkeeping compares the index-free bookkeeping with the
// position-index reference, at two levels:
//
//   - moveFlipped against posRemoveAll, over slices of up to 512
//     entries and increasing index sets (a sample, none, all, a tail run,
//     the last alone) that lie below a prefix of the slice, entries
//     appended after the prefix standing for the deaths that a births
//     pass sees at its tail;
//   - the edge-Markovian and churn generators against their reference
//     copies, at n ≤ 96 with the probabilities taken from the fuzzed
//     bits, for 200 interactions: the same interactions and the same
//     source state after them.
func FuzzFlipBookkeeping(f *testing.F) {
	for _, p := range [][2]float64{{0.05, 0.2}, {0.5, 0.5}, {1, 1}, {1, 0}, {1e-9, 1}, {1e-9, 0}, {0.2, 1e-9}, {0.999, 0.01}} {
		for shape := uint8(0); shape < 5; shape++ {
			f.Add(uint64(shape)+1, uint16(300), uint16(200), shape, math.Float64bits(p[0]), math.Float64bits(p[1]))
		}
	}
	f.Add(uint64(9), uint16(1), uint16(1), uint8(4), math.Float64bits(0.5), math.Float64bits(0.5))
	f.Add(uint64(9), uint16(0), uint16(0), uint8(0), math.Float64bits(0.5), math.Float64bits(0.5))
	f.Fuzz(func(t *testing.T, seed uint64, size, prefix uint16, shape uint8, aBits, bBits uint64) {
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)

		m := int(size % 513)
		pre := int(prefix) % (m + 1)
		src := rng.New(seed)
		p := 0.5
		if a >= 0 && a <= 1 {
			p = a
		}
		idx := flipIndices(src, shape, pre, p)
		from := make([]int, m)
		for i := range from {
			from[i] = 1000 + i
		}
		to := []int{-1, -2}
		wantFrom, wantTo := posRemoveAll(slices.Clone(from), slices.Clone(to), idx)
		gotFrom, gotTo, _ := moveFlipped(from, to, idx, nil)
		if !slices.Equal(gotFrom, wantFrom) || !slices.Equal(gotTo, wantTo) {
			t.Fatalf("m=%d prefix=%d idx=%v:\n from %v\n want %v\n to %v\n want %v", m, pre, idx, gotFrom, wantFrom, gotTo, wantTo)
		}

		if !(a >= 0 && a <= 1 && b > 0 && b <= 1) {
			return // not a probability pair every generator accepts
		}
		n := 2 + int(seed%95)
		em, err := NewEdgeMarkovian(n, b, a)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := NewUniform(n)
		if err != nil {
			t.Fatal(err)
		}
		// A churn chain that keeps most nodes offline makes the inner
		// model draw thousands of times per interaction; a smaller inner
		// chain keeps each run to milliseconds.
		small, err := NewEdgeMarkovian(2+int(seed%15), b, a)
		if err != nil {
			t.Fatal(err)
		}
		pairs := [][2]Model{{em, &refEdgeMarkovian{*em}}}
		for _, inner := range [][2]Model{{uni, uni}, {small, &refEdgeMarkovian{*small}}} {
			ch, err := NewChurn(inner[0], a, b)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, [2]Model{ch, &refChurn{Churn{inner: inner[1], pFail: a, pRecover: b}}})
		}
		for _, pair := range pairs {
			gs, ws := rng.New(seed), rng.New(seed)
			got, want := pair[0].Generator(gs), pair[1].Generator(ws)
			for i := 0; i < 200; i++ {
				if g, w := got(i), want(i); g != w {
					t.Fatalf("%s n=%d (%v, %v): interaction %d is %v, reference %v", pair[0].Name(), n, a, b, i, g, w)
				}
			}
			if gs.State() != ws.State() {
				t.Fatalf("%s n=%d (%v, %v): sources diverged", pair[0].Name(), n, a, b)
			}
		}
	})
}
