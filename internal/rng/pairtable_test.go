package rng

import (
	"sync"
	"testing"
)

// TestPairTableMatchesPairAt checks every index of every n up to the
// table bound against PairAt, and that sizes above it have no table,
// and that a draw through a table returns what Source.Pair returns and
// leaves its source where Source.Pair leaves it.
func TestPairTableMatchesPairAt(t *testing.T) {
	answered, fallback := 0, 0
	for n := 2; n <= pairTableMaxN; n++ {
		p := newPairTable(n)
		if len(p.words) > 8*n || len(p.words)*4 > 32<<10 {
			t.Fatalf("n=%d: %d buckets", n, len(p.words))
		}
		for k := uint64(0); k < p.total; k++ {
			ga, gb, ok := p.lookup(k)
			if !ok {
				fallback++
				continue
			}
			answered++
			if wa, wb := PairAt(n, k); ga != wa || gb != wb {
				t.Fatalf("n=%d: table gives (%d,%d) for index %d, PairAt (%d,%d)", n, ga, gb, k, wa, wb)
			}
		}
	}
	// A table that always fell back, or never did, would show nothing.
	if fallback == 0 || answered < 99*(answered+fallback)/100 {
		t.Errorf("table answered %d indices and left %d to PairAt", answered, fallback)
	}
	for _, n := range []int{pairTableMaxN + 1, 1500, 4096, 1 << 17} {
		p := newPairTable(n)
		for _, k := range []uint64{0, p.total / 2, p.total - 1} {
			if _, _, ok := p.lookup(k); ok {
				t.Fatalf("n=%d has a table above the bound", n)
			}
		}
	}
	for _, n := range []int{2, 3, 16, 17, 64, 511, 512, pairTableMaxN, pairTableMaxN + 1, 5000} {
		p := PairTableFor(n)
		viaTable, viaPair := New(uint64(n)), New(uint64(n))
		for i := 0; i < 5000; i++ {
			ga, gb := p.Pair(viaTable)
			wa, wb := viaPair.Pair(n)
			if ga != wa || gb != wb {
				t.Fatalf("n=%d draw %d: table drew (%d,%d), Source.Pair (%d,%d)", n, i, ga, gb, wa, wb)
			}
		}
		if viaTable.State() != viaPair.State() {
			t.Fatalf("n=%d: source states differ after 5000 draws", n)
		}
	}
}

func TestPairTablePanicsBelowTwo(t *testing.T) {
	for _, n := range []int{1, 0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: Pair did not panic", n)
				}
			}()
			PairTableFor(n).Pair(New(1))
		}()
	}
}

// FuzzPairTable checks one index of one n against PairAt, across and
// far beyond the table bound.
func FuzzPairTable(f *testing.F) {
	// n = 2 + n16 mod 4·pairTableMaxN: the seeds are n = 512 (first and
	// last index), 1024, 2 and 4000.
	f.Add(uint16(510), uint64(0))
	f.Add(uint16(510), uint64(130815))
	f.Add(uint16(1022), uint64(523700))
	f.Add(uint16(0), uint64(0))
	f.Add(uint16(3998), uint64(1<<40))
	f.Fuzz(func(t *testing.T, n16 uint16, k uint64) {
		n := 2 + int(n16)%(4*pairTableMaxN)
		p := PairTableFor(n)
		k %= p.total
		ga, gb, ok := p.lookup(k)
		if wa, wb := PairAt(n, k); ok && (ga != wa || gb != wb) {
			t.Fatalf("n=%d: table gives (%d,%d) for index %d, PairAt (%d,%d)", n, ga, gb, k, wa, wb)
		}
	})
}

// TestPairTableSharedAcrossGoroutines draws through cached tables from
// several goroutines at once, so -race sees the cache and the shared
// tables, and checks every goroutine drew what Source.Pair draws.
func TestPairTableSharedAcrossGoroutines(t *testing.T) {
	sizes := []int{16, 64, 96, 512, 2000}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				n := sizes[(g+r)%len(sizes)]
				p := PairTableFor(n)
				viaTable, viaPair := New(uint64(g*100+r)), New(uint64(g*100+r))
				for i := 0; i < 200; i++ {
					ga, gb := p.Pair(viaTable)
					if wa, wb := viaPair.Pair(n); ga != wa || gb != wb {
						t.Errorf("goroutine %d, n=%d: table drew (%d,%d), Source.Pair (%d,%d)", g, n, ga, gb, wa, wb)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if p, q := PairTableFor(64), PairTableFor(64); p != q {
		t.Error("PairTableFor built a second table for n=64")
	}
}

func BenchmarkPairTable(b *testing.B) {
	s, p := New(1), PairTableFor(1024)
	for i := 0; i < b.N; i++ {
		_, _ = p.Pair(s)
	}
}
