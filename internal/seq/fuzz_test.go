package seq

import (
	"encoding/binary"
	"testing"

	"doda/internal/graph"
)

// FuzzMeetTimeQueries checks the meet-time index against a linear scan.
// The fuzzer picks the node count, the sequence (two bytes per
// interaction, the whole pattern repeated 1 to 8 times so that long
// sequences cross the index's scan chunks), the sink, the horizon and a
// list of queries (six bytes each: kind, node, a 16-bit time, and a
// 16-bit limit whose high byte doubles as Sooner's second node). Nodes
// range one past both ends of [0, n), so queries hit the sink, ordinary
// nodes and out-of-range identifiers; times, limits and horizons fall
// both short of and past the sequence's end. Two indexes answer every
// query: one built over the Sequence as a View and one over a generator
// replaying the same interactions. Their answers and scan progress must
// agree with each other, and Next, NextWithin and Sooner with the linear
// scan; and no query may scan past the chunk holding the last time its
// answer depends on.
func FuzzMeetTimeQueries(f *testing.F) {
	// Sink 0; node 2 meets it at 1 and 4, node 1 at 3 (TestMeetTimesBasics).
	basics := []byte{1, 0, 0, 1, 1, 0, 0, 0, 0, 1}
	f.Add(uint8(1), basics, uint8(0), uint8(0), uint16(5), []byte{
		0, 3, 0, 2, 0, 0, // Next(2, 0)
		1, 3, 0, 2, 0, 2, // NextWithin(2, 0, 0): the meeting at 1 is past the limit
		1, 3, 0, 3, 0, 5, // NextWithin(2, 1, 3): the meeting at 4 is past the limit
		2, 3, 0, 2, 2, 0, // Sooner(2, 1, 0)
		2, 1, 0, 2, 3, 0, // Sooner(0, 2, 0): the sink meets itself first
		2, 0, 0, 2, 0, 0, // Sooner(-1, -1, 0): out of range on both sides
		1, 3, 0, 2, 0, 3, // NextWithin(2, 0, 1): the meeting at 1 is at the limit
		1, 1, 0, 7, 0, 5, // NextWithin(0, 5, 3): the sink's own meeting is past the limit
		2, 3, 0, 2, 1, 0, // Sooner(2, 0, 0): the sink second
		2, 3, 0, 6, 2, 0, // Sooner(2, 1, 4): neither meets again, the tie goes to 2
		2, 2, 0, 2, 3, 0, // Sooner(1, 2, 0): both indexed, 2 sooner
	})
	// Node 2 meets sink 0 at 0, 512 and 1024, just past the first scan
	// chunk: a limit of 1023 must stop the scan there, and a limit of
	// 1024 must scan on to find the meeting.
	chunked := []byte{0, 1}
	for i := 0; i < 511; i++ {
		chunked = append(chunked, 1, 0)
	}
	f.Add(uint8(1), chunked, uint8(0), uint8(2), uint16(1540), []byte{
		0, 3, 0, 2, 0, 0, // Next(2, 0): one chunk finds 512
		1, 3, 2, 2, 4, 1, // NextWithin(2, 512, 1023)
		1, 3, 2, 2, 4, 2, // NextWithin(2, 512, 1024)
	})
	// A horizon shorter than the sequence and than the limits asked.
	f.Add(uint8(2), []byte{0, 1, 2, 3, 0, 3, 1, 3, 0, 2, 0, 1}, uint8(3), uint8(0), uint16(3), []byte{
		1, 2, 0, 1, 0, 200, 1, 3, 0, 0, 0, 4, 2, 2, 0, 0, 3, 0, 0, 5, 0, 1, 0, 0,
	})
	// Eight repeats of 200 interactions: 1600, past one scan chunk.
	long := make([]byte, 400)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(uint8(5), long, uint8(1), uint8(7), uint16(1500), []byte{
		1, 4, 4, 0, 4, 10, 2, 5, 5, 0, 3, 0, 0, 6, 1, 200, 0, 0, 1, 3, 3, 250, 4, 0,
	})
	f.Fuzz(func(t *testing.T, nRaw uint8, steps []byte, sinkRaw, repeatRaw uint8, horizonRaw uint16, queries []byte) {
		n := 2 + int(nRaw%14)
		if len(steps) > 2048 {
			steps = steps[:2048]
		}
		var its []Interaction
		for r := 0; r <= int(repeatRaw%8); r++ {
			for i := 0; i+1 < len(steps); i += 2 {
				a := int(steps[i]) % n
				b := (a + 1 + int(steps[i+1])%(n-1)) % n
				its = append(its, MustInteraction(graph.NodeID(a), graph.NodeID(b)))
			}
		}
		s, err := NewSequence(n, its)
		if err != nil {
			t.Fatal(err)
		}
		sink := graph.NodeID(int(sinkRaw) % n)
		horizon := int(horizonRaw) % (len(its) + 8)
		fromView, err := NewMeetTimes(s, sink, horizon)
		if err != nil {
			t.Fatal(err)
		}
		// A generator cannot report its own end, so the generator-backed
		// index gets the horizon NewMeetTimes caps at the view's bound.
		scan := min(horizon, len(its))
		next := 0
		gen := func(ti int) Interaction {
			if ti != next || ti >= scan {
				t.Fatalf("generator called at t=%d, want %d below the horizon %d", ti, next, scan)
			}
			next++
			return its[ti]
		}
		fromGen, err := NewMeetTimesGen(n, gen, sink, scan)
		if err != nil {
			t.Fatal(err)
		}

		// ref is the linear scan: u's first meeting with the sink after
		// ti among the first scan interactions.
		ref := func(u graph.NodeID, ti int) (int, bool) {
			if u == sink {
				return ti, true
			}
			for t2 := max(ti+1, 0); t2 < scan; t2++ {
				if its[t2].Involves(u) && its[t2].Involves(sink) {
					return t2, true
				}
			}
			return 0, false
		}
		// meet is ref for the other non-sink node whose meeting a query
		// scans for: the time of that meeting, or scan when there is
		// none within the horizon.
		meet := func(u graph.NodeID, ti int) int {
			if m, ok := ref(u, ti); ok {
				return m
			}
			return scan
		}
		node := func(b byte) graph.NodeID { return graph.NodeID(int(b)%(n+2) - 1) }
		at := func(b []byte) int { return int(binary.BigEndian.Uint16(b))%(len(its)+4) - 2 }
		for q := 0; q+5 < len(queries) && q < 6*64; q += 6 {
			u, ti := node(queries[q+1]), at(queries[q+2:])
			before := fromView.Scanned()
			// stop is the last time the answer depends on; -1 when the
			// sink's own meeting settles it.
			stop := -1
			switch queries[q] % 3 {
			case 0:
				want, wantOK := ref(u, ti)
				for _, mt := range []*MeetTimes{fromView, fromGen} {
					if got, ok := mt.Next(u, ti); ok != wantOK || (ok && got != want) {
						t.Fatalf("Next(%d, %d) = %d, %v; linear scan %d, %v", u, ti, got, ok, want, wantOK)
					}
				}
				if u != sink {
					stop = meet(u, ti)
				}
			case 1:
				limit := at(queries[q+4:])
				want, wantOK := ref(u, ti)
				wantOK = wantOK && want <= limit
				for _, mt := range []*MeetTimes{fromView, fromGen} {
					if got, ok := mt.NextWithin(u, ti, limit); ok != wantOK || (ok && got != want) {
						t.Fatalf("NextWithin(%d, %d, %d) = %d, %v; linear scan %d, %v", u, ti, limit, got, ok, want, wantOK)
					}
				}
				if u != sink {
					stop = min(meet(u, ti), limit)
				}
			case 2:
				v := node(queries[q+4])
				mu, okU := ref(u, ti)
				mv, okV := ref(v, ti)
				want := u
				if okV && (!okU || mv < mu) {
					want = v
				}
				for _, mt := range []*MeetTimes{fromView, fromGen} {
					if got := mt.Sooner(u, v, ti); got != want {
						t.Fatalf("Sooner(%d, %d, %d) = %d; linear scan %d (meetings %d,%v and %d,%v)",
							u, v, ti, got, want, mu, okU, mv, okV)
					}
				}
				if u != sink && v != sink {
					stop = min(meet(u, ti), meet(v, ti))
				}
			}
			if fromView.Scanned() != fromGen.Scanned() {
				t.Fatalf("scanned %d (view) vs %d (generator)", fromView.Scanned(), fromGen.Scanned())
			}
			limit := before
			if stop >= 0 {
				limit = max(before, min(scan, (stop/scanChunk+1)*scanChunk))
			}
			if fromView.Scanned() > limit {
				t.Fatalf("query %d scanned to %d, past %d (chunk of t=%d, horizon %d)", q/6, fromView.Scanned(), limit, stop, scan)
			}
		}
	})
}
