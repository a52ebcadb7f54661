package scenario

import (
	"math"
	"slices"
	"sync"
	"testing"

	"doda/internal/rng"
	"doda/internal/seq"
)

// TestGeomSkipMatchesFloatPath checks the table against the float path
// wherever the table answers: around every step (found by bisecting the
// float path itself, not from the table's own formula), around every
// bucket edge, and over a million random draws per probability. A step
// within skipGuard+1 draws of a bucket edge must leave the bucket across
// that edge slow, since that bucket's own step test cannot see it; p=0.5
// puts its first twelve steps exactly on edges. It also checks that the
// table does answer, so one that always fell back could not pass.
func TestGeomSkipMatchesFloatPath(t *testing.T) {
	const (
		band     = 64
		maxSteps = 1 << 16
		random   = 1 << 20
	)
	ps := []float64{0.999, 0.9, 0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-9, 0.05 / (0.05 + 0.2)}
	edgeSteps := 0
	for _, p := range ps {
		g := newGeomSkip(p)
		logq := math.Log1p(-p)
		floatK := func(r uint64) float64 { return math.Log(1-float64(r)/(1<<53)) / logq }
		answered := 0
		check := func(r uint64) {
			k, ok := g.lookup(r)
			if !ok {
				return
			}
			answered++
			if want := int(math.Log(1-float64(r)/(1<<53)) / logq); k != want {
				t.Fatalf("p=%v r=%d: table says %d, float path %d", p, r, k, want)
			}
		}
		around := func(c uint64) {
			for r := c - min(c, band); r <= c+band && r < 1<<53; r++ {
				check(r)
			}
		}
		// Step k is the first draw whose float skip reaches k.
		lo := uint64(0)
		for k := 1; k <= maxSteps && floatK(1<<53-1) >= float64(k); k++ {
			hi := uint64(1<<53 - 1)
			for lo < hi {
				mid := lo + (hi-lo)/2
				if floatK(mid) >= float64(k) {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			around(lo)
			if g.tab == nil {
				continue
			}
			b, off := lo>>skipBucketShift, lo&(skipBucketWidth-1)
			across := -1
			if off <= skipGuard && b > 0 {
				across = int(b) - 1
			} else if off >= skipBucketWidth-1-skipGuard && b+1 < skipBuckets {
				across = int(b) + 1
			}
			if across >= 0 {
				edgeSteps++
				if g.tab[across].base >= 0 {
					t.Fatalf("p=%v: step %d lies %d draws into bucket %d, yet bucket %d across the edge is not slow", p, k, off, b, across)
				}
			}
		}
		for b := uint64(0); b < skipBuckets; b++ {
			around(b << skipBucketShift)
		}
		src := rng.New(math.Float64bits(p))
		answered = 0
		for i := 0; i < random; i++ {
			check(src.Uint64() >> 11)
		}
		slow := skipBuckets
		if g.tab != nil {
			slow = 0
			for _, e := range g.tab {
				if e.base < 0 {
					slow++
				}
			}
		}
		t.Logf("p=%v: %d slow buckets, table answered %.4f of random draws", p, slow, float64(answered)/random)
		if p == 0.05 && (slow > 16 || answered < random*99/100) {
			t.Errorf("p=0.05: %d slow buckets and %d of %d random draws answered; want at most 16 and 99%%",
				slow, answered, random)
		}
	}
	if edgeSteps == 0 {
		t.Error("no step lies near a bucket edge, so the edge marking is never checked")
	}
}

// floatBernoulliIndices is bernoulliIndices as it was before the table:
// every skip from math.Log. The table must reproduce it exactly.
func floatBernoulliIndices(src *rng.Source, m int, p float64, out []int) []int {
	switch {
	case m <= 0 || p <= 0:
		return out
	case p >= 1:
		for i := 0; i < m; i++ {
			out = append(out, i)
		}
		return out
	}
	logq := math.Log1p(-p)
	i := 0
	for {
		u := 1 - src.Float64()
		skip := math.Log(u) / logq
		if skip >= float64(m-i) {
			return out
		}
		i += int(skip)
		if i >= m {
			return out
		}
		out = append(out, i)
		i++
	}
}

// FuzzBernoulliIndices runs the table-driven and the float-path trial
// sequences side by side from one seed over m ≤ 2¹⁶ trials and a fuzzed
// probability: they must return the same indices and leave their
// sources in the same state.
func FuzzBernoulliIndices(f *testing.F) {
	for _, p := range []float64{0.999, 0.9, 0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 0x1p-13, 1e-9, 1e-300, 0, 1, -1, 2} {
		f.Add(uint64(1), uint32(2016), math.Float64bits(p))
	}
	f.Add(uint64(7), uint32(1<<16), math.Float64bits(0.5))
	f.Fuzz(func(t *testing.T, seed uint64, m uint32, pbits uint64) {
		p := math.Float64frombits(pbits)
		if math.IsNaN(p) {
			t.Skip("the models reject NaN probabilities")
		}
		n := int(m % (1<<16 + 1))
		a, b := rng.New(seed), rng.New(seed)
		got := bernoulliIndices(a, n, p, nil)
		want := floatBernoulliIndices(b, n, p, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("p=%v m=%d: indices differ: %d vs %d successes", p, n, len(got), len(want))
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v m=%d: sources diverged", p, n)
		}
	})
}

// TestGeomSkipSharedAcrossGoroutines drives the shared tables from
// several goroutines at once, as sweep workers do: generators of models
// that share probabilities, started on a cold cache and run
// concurrently, must each produce the sequence they produce alone. Run
// under -race it also checks that building, caching and reading the
// tables is synchronized.
func TestGeomSkipSharedAcrossGoroutines(t *testing.T) {
	const n, prefix, workers = 16, 2000, 4
	models := make([]Model, 2*workers)
	for i := range models {
		pUp := []float64{0.05, 0.3, 0.05 + float64(i)/64}[i%3]
		em, err := NewEdgeMarkovian(n, pUp, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if models[i], err = NewChurn(em, 0.1, pUp); err != nil {
			t.Fatal(err)
		}
	}
	run := func(i int) []seq.Interaction {
		gen := models[i].Generator(rng.New(uint64(i)))
		out := make([]seq.Interaction, prefix)
		for at := range out {
			out[at] = gen(at)
		}
		return out
	}
	want := make([][]seq.Interaction, len(models))
	for i := range want {
		want[i] = run(i)
	}
	geomSkips.Lock()
	geomSkips.m = nil
	geomSkips.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(models); i += workers {
				if !slices.Equal(run(i), want[i]) {
					t.Errorf("model %d: concurrent sequence differs from the lone one", i)
				}
			}
		}()
	}
	wg.Wait()
}
