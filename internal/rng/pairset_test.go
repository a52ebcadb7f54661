package rng

import (
	"fmt"
	"testing"
)

// has reports whether the pair of index k is in s.
func has(s *PairSet, k uint64) bool {
	return s.words[k>>6]&(1<<(k&63)) != 0
}

// pairSetAgrees fails unless s holds exactly the pairs of [0, n) whose
// two members are both present.
func pairSetAgrees(t *testing.T, s *PairSet, n int, present []bool, where string) {
	t.Helper()
	total := uint64(n) * uint64(n-1) / 2
	for k := uint64(0); k < total; k++ {
		a, b := PairAt(n, k)
		if want := present[a] && present[b]; has(s, k) != want {
			t.Fatalf("%s: pair (%d,%d) at index %d: in set %v, want %v", where, a, b, k, has(s, k), want)
		}
	}
	for k := total; k < uint64(len(s.words))*64; k++ {
		if has(s, k) {
			t.Fatalf("%s: bit %d past the %d pair indices is set", where, k, total)
		}
	}
}

// permutations calls fn with every ordering of [0, n).
func permutations(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(int)
	rec = func(i int) {
		if i == n {
			fn(p)
			return
		}
		for j := i; j < n; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
}

// TestPairSetDrop checks that after every prefix of a drop order the set
// holds exactly the pairs whose members are both still present: every
// order of every n up to 6, and for every n up to 64 the ascending and
// descending orders and three seeded shuffles. A repeated drop changes
// nothing, and Fill restores every pair.
func TestPairSetDrop(t *testing.T) {
	check := func(n int, order []int, where string) {
		s := NewPairSet(n)
		present := make([]bool, n)
		for i := range present {
			present[i] = true
		}
		pairSetAgrees(t, s, n, present, where+" before any drop")
		for i, u := range order {
			s.Drop(u)
			present[u] = false
			pairSetAgrees(t, s, n, present, fmt.Sprintf("%s after %d drops", where, i+1))
		}
		s.Drop(order[0])
		pairSetAgrees(t, s, n, present, where+" after a repeated drop")
		s.Fill()
		for i := range present {
			present[i] = true
		}
		pairSetAgrees(t, s, n, present, where+" after Fill")
	}
	for n := 2; n <= 6; n++ {
		permutations(n, func(order []int) {
			check(n, order, fmt.Sprintf("n=%d order %v", n, order))
		})
	}
	for n := 2; n <= 64; n++ {
		asc, desc := make([]int, n), make([]int, n)
		for i := range asc {
			asc[i], desc[i] = i, n-1-i
		}
		check(n, asc, fmt.Sprintf("n=%d ascending", n))
		check(n, desc, fmt.Sprintf("n=%d descending", n))
		for seed := uint64(1); seed <= 3; seed++ {
			order := New(seed*1000 + uint64(n)).Perm(n)
			check(n, order, fmt.Sprintf("n=%d order %v", n, order))
		}
	}
	for _, n := range []int{1, 0, pairTableMaxN + 1} {
		if NewPairSet(n) != nil {
			t.Errorf("n=%d has a pair set", n)
		}
	}
}

// drawInReplay is what DrawIn must do, one Source.Pair at a time: the
// first of at most span draws whose pair is in set, and how many came
// before it.
func drawInReplay(src *Source, n int, set *PairSet, span int) (a, b, skipped int, ok bool) {
	for i := 0; i < span; i++ {
		a, b := src.Pair(n)
		k := pairIndex(n, a, b)
		if has(set, k) {
			return a, b, i, true
		}
	}
	return 0, 0, span, false
}

// pairIndex is PairAt's inverse: the lexicographic index of (a, b).
func pairIndex(n, a, b int) uint64 {
	return uint64(a*(n-1)-a*(a-1)/2) + uint64(b-a-1)
}

// TestDrawInMatchesPair checks DrawIn against a Source.Pair replay at
// sizes with and without three-row buckets, over sets thinned to a few
// members, spans of 1 to many, and states whose next output Lemire's
// method rejects: the same pair, skip count and final state.
func TestDrawInMatchesPair(t *testing.T) {
	for _, n := range []int{2, 3, 17, 63, 64, 65, 512, pairTableMaxN} {
		p := PairTableFor(n)
		set := NewPairSet(n)
		order := New(uint64(n)).Perm(n)
		got, want := New(uint64(n)+5), New(uint64(n)+5)
		hits, rejections := 0, 0
		for round := 0; round < 400; round++ {
			if round%40 == 39 && len(order) > 2 {
				set.Drop(order[0])
				order = order[1:]
			}
			if round%7 == 3 {
				// An output of 0 multiplies to a low word of 0, which is
				// below Lemire's threshold whenever n(n-1)/2 is not a power
				// of two: the draw must be rejected and redrawn.
				st := got.State()
				st[1] = 0
				got.Restore(st)
				want.Restore(st)
				if p.total&(p.total-1) != 0 {
					rejections++
				}
			}
			span := 1 + round%13*round
			ga, gb, gs, gok := p.DrawIn(got, set, span)
			wa, wb, ws, wok := drawInReplay(want, n, set, span)
			if ga != wa || gb != wb || gs != ws || gok != wok {
				t.Fatalf("n=%d round %d span %d: DrawIn gave (%d,%d) after %d, ok %v; replay (%d,%d) after %d, ok %v",
					n, round, span, ga, gb, gs, gok, wa, wb, ws, wok)
			}
			if got.State() != want.State() {
				t.Fatalf("n=%d round %d: source states differ after DrawIn", n, round)
			}
			if gok {
				hits++
			}
		}
		if hits == 0 || (n > 2 && rejections == 0) {
			t.Fatalf("n=%d: %d hits, %d forced rejections: the test shows nothing", n, hits, rejections)
		}
	}
}

// BenchmarkDrawIn measures a draw through a set of 40 of 512 nodes'
// pairs, about 1 in 170 of all: per draw, nearly every one a miss.
func BenchmarkDrawIn(b *testing.B) {
	const n = 512
	s, p, set := New(1), PairTableFor(n), NewPairSet(n)
	for u := 0; u < n-40; u++ {
		set.Drop(u)
	}
	b.ResetTimer()
	for draws := 0; draws < b.N; {
		_, _, skipped, _ := p.DrawIn(s, set, b.N-draws)
		draws += skipped + 1
	}
}
