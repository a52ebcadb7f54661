package bitset

import (
	"math/bits"
	"testing"
	"testing/quick"

	"doda/internal/rng"
)

func TestAddHasRemove(t *testing.T) {
	s := New(100)
	if s.Has(5) {
		t.Error("fresh set has bit")
	}
	s.Add(5)
	s.Add(64)
	s.Add(99)
	if !s.Has(5) || !s.Has(64) || !s.Has(99) {
		t.Error("missing added bits")
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Remove failed")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	s := New(10)
	s.Add(-1)
	s.Add(10)
	s.Add(1000)
	if s.Count() != 0 {
		t.Errorf("out-of-range Add mutated set: %v", s)
	}
	if s.Has(-1) || s.Has(10) {
		t.Error("out-of-range Has returned true")
	}
	s.Remove(99) // must not panic
}

func TestFull(t *testing.T) {
	s := New(70)
	for i := 0; i < 70; i++ {
		if s.Full() {
			t.Fatalf("Full true at %d bits", i)
		}
		s.Add(i)
	}
	if !s.Full() {
		t.Error("Full false with all bits set")
	}
}

func TestFullEmptyCapacity(t *testing.T) {
	if !New(0).Full() {
		t.Error("zero-capacity set should be trivially full")
	}
}

func TestUnionWith(t *testing.T) {
	a, b := New(10), New(10)
	a.Add(1)
	b.Add(2)
	b.Add(1)
	a.UnionWith(b)
	if !a.Has(1) || !a.Has(2) || a.Count() != 2 {
		t.Errorf("union = %v", a)
	}
	if b.Count() != 2 {
		t.Error("union mutated operand")
	}
}

func TestUnionWithMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch did not panic")
		}
	}()
	New(5).UnionWith(New(6))
}

func TestIntersectsWith(t *testing.T) {
	a, b := New(130), New(130)
	a.Add(128)
	b.Add(127)
	if a.IntersectsWith(b) {
		t.Error("disjoint sets intersect")
	}
	b.Add(128)
	if !a.IntersectsWith(b) {
		t.Error("intersection missed")
	}
}

func TestEqualClone(t *testing.T) {
	a := New(66)
	a.Add(0)
	a.Add(65)
	c := a.Clone()
	if !a.Equal(c) {
		t.Error("clone not equal")
	}
	c.Add(3)
	if a.Equal(c) {
		t.Error("clone shares storage")
	}
	if a.Equal(New(67)) {
		t.Error("different capacities equal")
	}
}

func TestMembersString(t *testing.T) {
	s := New(10)
	s.Add(7)
	s.Add(2)
	m := s.Members()
	if len(m) != 2 || m[0] != 2 || m[1] != 7 {
		t.Errorf("Members = %v", m)
	}
	if got := s.String(); got != "{2,7}" {
		t.Errorf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestNegativeCapacity(t *testing.T) {
	s := New(-5)
	if s.Cap() != 0 {
		t.Errorf("Cap = %d", s.Cap())
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		s := New(n)
		s.SetAll()
		if s.Count() != n {
			t.Errorf("n=%d: SetAll Count = %d", n, s.Count())
		}
		if !s.Full() {
			t.Errorf("n=%d: SetAll not Full", n)
		}
		if s.Has(n) {
			t.Errorf("n=%d: tail bit set", n)
		}
	}
}

func TestWordsAlias(t *testing.T) {
	s := New(70)
	w := s.Words()
	if len(w) != 2 {
		t.Fatalf("len(Words) = %d", len(w))
	}
	SetWordBit(w, 69)
	if !s.Has(69) {
		t.Error("SetWordBit not visible through Set")
	}
	s.Add(3)
	if !TestWord(w, 3) {
		t.Error("Set.Add not visible through Words")
	}
	ClearWordBit(w, 69)
	if s.Has(69) {
		t.Error("ClearWordBit not visible through Set")
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{-3: 0, 0: 0, 1: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for n, want := range cases {
		if got := WordsFor(n); got != want {
			t.Errorf("WordsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// The k-th member sits at a set bit of the word view with exactly k set
// bits below it, and CountWords over the whole view matches Count.
func TestQuickSelectMatchesMembers(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := src.Intn(300) + 1
		s := New(n)
		for i := 0; i < 60; i++ {
			s.Add(src.Intn(n))
		}
		w := s.Words()
		if CountWords(w) != s.Count() {
			return false
		}
		for k, m := range s.Members() {
			if !TestWord(w, m) {
				return false
			}
			below := CountWords(w[:m>>6]) + bits.OnesCount64(w[m>>6]&(1<<uint(m&63)-1))
			if below != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCountMatchesMembers(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := src.Intn(200) + 1
		s := New(n)
		for i := 0; i < 50; i++ {
			s.Add(src.Intn(n))
		}
		return s.Count() == len(s.Members())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionSuperset(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := src.Intn(150) + 1
		a, b := New(n), New(n)
		for i := 0; i < 30; i++ {
			a.Add(src.Intn(n))
			b.Add(src.Intn(n))
		}
		before := a.Clone()
		a.UnionWith(b)
		for _, m := range before.Members() {
			if !a.Has(m) {
				return false
			}
		}
		for _, m := range b.Members() {
			if !a.Has(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
