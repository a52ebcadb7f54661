package rng

import (
	"math/bits"
	"sync"
)

// Pair tables. Source.Pair draws k uniformly below n(n-1)/2 and maps it
// to the k-th pair in lexicographic order with PairAt, a float square
// root and an integer correction. A PairTable answers the same mapping
// for one n from a table. Row a of the order holds the pairs (a, a+1),
// ..., (a, n-1), so it is n-1-a long and starts at index
// S(a) = a(n-1) - a(a-1)/2. The table cuts the index range into buckets
// of 2^s consecutive indices and keeps, per bucket, one 32-bit word: the
// row a holding the bucket's first index, and S(a); the next row starts
// at S(a+1) = S(a) + n-1-a. A bucket that meets at most rows a and a+1
// maps k to row a below S(a+1) and to row a+1 from it, and the pair's
// second member is a+1 plus k's offset in its row: the same integer
// arithmetic PairAt ends with, so the answer is exact.
//
// 2^s is the smallest power of two at least n/16, so there are at most
// 8n buckets. A bucket meets three or more rows only if it holds a whole
// row, shorter than the bucket, which happens only among the last 2^s
// rows. Such a bucket is marked, and PairAt answers its indices: 0.2% of
// the draws at n = 512, at most 0.9% at any n from 64 to 1024. Tables
// exist for n up to pairTableMaxN, where one is 32 KiB (16 KiB at
// n = 512); above it, or below 2, a table is one marked bucket that
// every index falls into.

const (
	// pairTableMaxN is the largest n with a table: 8n buckets of one
	// 32-bit word each, so 32 KiB at n = 1024.
	pairTableMaxN = 1024
	// pairRowShift places a word's row above S(row), which is below
	// n(n-1)/2 < 2^19 for every n with a table.
	pairRowShift  = 19
	pairStartMask = 1<<pairRowShift - 1
	// pairFallback marks a bucket whose indices PairAt answers. Its row
	// field, 0x1fff, is no row of any n with a table.
	pairFallback = ^uint32(0)
)

// fallbackOnly is the one-bucket table of every n without a table.
var fallbackOnly = []uint32{pairFallback}

// PairTable maps pair indices to pairs for one n exactly as PairAt does.
// It is immutable once built, so sources on any goroutine may share one.
type PairTable struct {
	n     int
	total uint64
	shift uint // bucket of index k: k >> shift
	words []uint32
}

// newPairTable builds the table for n, walking the rows once.
func newPairTable(n int) *PairTable {
	total := uint64(n) * uint64(n-1) / 2
	if n < 2 || n > pairTableMaxN {
		// A shift of 64 sends every index to bucket 0.
		return &PairTable{n: n, total: total, shift: 64, words: fallbackOnly}
	}
	shift := uint(max(bits.Len(uint(n-1))-4, 0))
	width := uint64(1) << shift
	p := &PairTable{n: n, total: total, shift: shift, words: make([]uint32, (total+width-1)>>shift)}
	row, start := uint64(0), uint64(0) // the row holding index k, and S(row)
	rowLen := func(a uint64) uint64 { return uint64(n-1) - a }
	for b := range p.words {
		k := uint64(b) << shift
		for start+rowLen(row) <= k {
			start += rowLen(row)
			row++
		}
		next := start + rowLen(row)
		last := min(k+width, total) - 1
		if last >= next && last-next >= rowLen(row+1) {
			p.words[b] = pairFallback // the bucket reaches row+2
			continue
		}
		p.words[b] = uint32(row<<pairRowShift | start)
	}
	return p
}

// lookup returns PairAt(n, k), for k below n(n-1)/2, from the table, or
// ok false where PairAt must answer. It is small enough to inline, so a
// draw makes no call past its bounded draw.
func (p *PairTable) lookup(k uint64) (a, b int, ok bool) {
	w := p.words[k>>p.shift]
	if w == pairFallback {
		return 0, 0, false
	}
	row, start := uint64(w>>pairRowShift), uint64(w&pairStartMask)
	if next := start + uint64(p.n-1) - row; k >= next {
		row++
		start = next
	}
	return int(row), int(row+1) + int(k-start), true
}

// Pair draws a pair exactly as s.Pair(n) does: the same single bounded
// draw, so it returns the same pair and leaves s in the same state. It
// panics if n < 2.
func (p *PairTable) Pair(s *Source) (a, b int) {
	if p.n < 2 {
		panic(ErrEmptyRange)
	}
	k := s.boundedUint64(p.total)
	if a, b, ok := p.lookup(k); ok {
		return a, b
	}
	return PairAt(p.n, k)
}

// pairTableMax bounds the tables PairTableFor keeps: each is at most
// 32 KiB, and a sweep or a fuzzer may pass through any number of sizes.
const pairTableMax = 32

// pairTables memoizes one PairTable per n for the whole process, so a
// table is built once, by the first generator that needs it, rather
// than per model or per replica. What a table returns does not depend
// on whether it came from the cache, so sharing it cannot couple one
// caller's sequence to another's.
var pairTables struct {
	sync.Mutex
	m map[int]*PairTable
}

// PairTableFor returns the shared PairTable for n, building it on first
// use. When the cache is full an arbitrary entry makes room; sources
// already holding it keep it. n without a table never enters the cache.
func PairTableFor(n int) *PairTable {
	if n < 2 || n > pairTableMaxN {
		return newPairTable(n)
	}
	pairTables.Lock()
	defer pairTables.Unlock()
	if p, ok := pairTables.m[n]; ok {
		return p
	}
	if pairTables.m == nil {
		pairTables.m = make(map[int]*PairTable)
	}
	if len(pairTables.m) >= pairTableMax {
		for old := range pairTables.m {
			delete(pairTables.m, old)
			break
		}
	}
	p := newPairTable(n)
	pairTables.m[n] = p
	return p
}
