package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d times in 1000 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if s.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs in 100 draws", zeros)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d times", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-squared style sanity check on Intn(10).
	s := New(11)
	const draws = 100000
	var counts [10]int
	for i := 0; i < draws; i++ {
		counts[s.Intn(10)]++
	}
	want := float64(draws) / 10
	for d, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("digit %d count %d too far from %v", d, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestInt63NonNegative(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		if v := s.Int63(); v < 0 {
			t.Fatalf("Int63() = %d < 0", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(13)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(17)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / draws; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(29)
	const draws = 60000
	var counts [6]int
	for i := 0; i < draws; i++ {
		counts[s.Perm(6)[0]]++
	}
	want := float64(draws) / 6
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Perm first element %d count %d, want ~%v", v, c, want)
		}
	}
}

func TestShuffle(t *testing.T) {
	s := New(31)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	Shuffle(s, xs)
	if len(xs) != 8 {
		t.Fatalf("length changed: %v", xs)
	}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("elements changed: %v", xs)
	}
}

func TestPairValid(t *testing.T) {
	s := New(37)
	for _, n := range []int{2, 3, 5, 10, 100} {
		for i := 0; i < 500; i++ {
			a, b := s.Pair(n)
			if a < 0 || b >= n || a >= b {
				t.Fatalf("Pair(%d) = (%d,%d) invalid", n, a, b)
			}
		}
	}
}

func TestPairUniform(t *testing.T) {
	// All 10 unordered pairs of 5 nodes should be equally likely.
	s := New(41)
	const draws = 100000
	counts := make(map[[2]int]int)
	for i := 0; i < draws; i++ {
		a, b := s.Pair(5)
		counts[[2]int{a, b}]++
	}
	if len(counts) != 10 {
		t.Fatalf("saw %d distinct pairs, want 10", len(counts))
	}
	want := float64(draws) / 10
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("pair %v count %d, want ~%v", p, c, want)
		}
	}
}

func TestPairPanicsBelowTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pair(1) did not panic")
		}
	}()
	New(1).Pair(1)
}

func TestStateRestore(t *testing.T) {
	s := New(43)
	s.Uint64()
	st := s.State()
	a := make([]uint64, 10)
	for i := range a {
		a[i] = s.Uint64()
	}
	s.Restore(st)
	for i := range a {
		if got := s.Uint64(); got != a[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	s := New(47)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPairOrdered(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%200) + 2
		a, b := New(seed).Pair(n)
		return 0 <= a && a < b && b < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSameSeedSameStream(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkPair(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_, _ = s.Pair(1024)
	}
}

// TestPairAtMatchesLinearScan pins the O(1) triangular-root inversion to
// the linear row scan it replaced: every pair index of every tested n
// must map to exactly the same (a, b), so the package's deterministic
// output stream is unchanged by the speedup.
func TestPairAtMatchesLinearScan(t *testing.T) {
	scan := func(n int, k uint64) (int, int) {
		a := 0
		rowLen := uint64(n - 1)
		for k >= rowLen {
			k -= rowLen
			a++
			rowLen--
		}
		return a, a + 1 + int(k)
	}
	for _, n := range []int{2, 3, 4, 5, 7, 64, 101, 257} {
		total := uint64(n) * uint64(n-1) / 2
		for k := uint64(0); k < total; k++ {
			ga, gb := PairAt(n, k)
			wa, wb := scan(n, k)
			if ga != wa || gb != wb {
				t.Fatalf("PairAt(%d, %d) = (%d,%d), scan gives (%d,%d)", n, k, ga, gb, wa, wb)
			}
		}
	}
	// Spot-check huge n (the scan is too slow to sweep): boundary and
	// random indexes, verified against the closed-form forward mapping
	// k(a, b) = a·n - a(a+3)/2 + b - 1.
	src := New(99)
	for _, n := range []int{1 << 17, 1 << 20} {
		total := uint64(n) * uint64(n-1) / 2
		ks := []uint64{0, 1, uint64(n - 2), uint64(n - 1), total / 2, total - 2, total - 1}
		for i := 0; i < 200; i++ {
			ks = append(ks, src.boundedUint64(total))
		}
		for _, k := range ks {
			a, b := PairAt(n, k)
			if a < 0 || b >= n || a >= b {
				t.Fatalf("PairAt(%d, %d) = (%d,%d) invalid", n, k, a, b)
			}
			au, bu := uint64(a), uint64(b)
			back := au*uint64(n) - au*(au+3)/2 + bu - 1
			if back != k {
				t.Fatalf("PairAt(%d, %d) = (%d,%d) maps back to index %d", n, k, a, b, back)
			}
		}
	}
}
