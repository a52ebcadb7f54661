package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"doda/internal/rng"
	"doda/internal/seq"
)

// agreesWithJSON fails t if canonicalLine takes line but encoding/json
// refuses it or decodes other values.
func agreesWithJSON(t *testing.T, line []byte) {
	t.Helper()
	u, v, ok := canonicalLine(line)
	if !ok {
		return
	}
	var rec ingestLine
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("fast path took %q as (%d, %d), encoding/json refuses it: %v", line, u, v, err)
	}
	if rec.U != u || rec.V != v {
		t.Fatalf("fast path took %q as (%d, %d), encoding/json decodes (%d, %d)", line, u, v, rec.U, rec.V)
	}
}

// TestCanonicalLineTaken checks that the fast path takes, and decodes
// right, every compact line serveclient can send: edge values around
// digit counts and the 16384-node ceiling, and random values up to the
// 9-digit limit. A parser that declines everything is exact but slow;
// this test refuses it.
func TestCanonicalLineTaken(t *testing.T) {
	vals := []int{0, 1, 9, 10, 255, 256, 16383, 16384, 999999999}
	src := rng.New(16)
	for i := 0; i < 32; i++ {
		vals = append(vals, int(src.Uint64()%(maxNodes+1)), int(src.Uint64()%1_000_000_000))
	}
	for _, u := range vals {
		for _, v := range vals {
			line := fmt.Appendf(nil, `{"u":%d,"v":%d}`, u, v)
			gu, gv, ok := canonicalLine(line)
			if !ok || gu != u || gv != v {
				t.Fatalf("canonicalLine(%s) = (%d, %d, %v), want (%d, %d, true)", line, gu, gv, ok, u, v)
			}
			agreesWithJSON(t, line)
		}
	}
}

// FuzzIngestLine is the differential check of the fast path: whenever
// canonicalLine takes a line, encoding/json accepts it into ingestLine
// and decodes the same (u, v). Each input checks the fuzzed line itself,
// the compact line of two fuzzed integers (which the fast path must
// take), and that line after one fuzzed single-byte edit, so lines the
// fast path takes are common and not only mutations of the seeds.
func FuzzIngestLine(f *testing.F) {
	f.Add([]byte(`{"u":1,"v":2}`), uint64(3), uint64(7), uint16(5), byte('0'), uint8(1))
	f.Add([]byte(`{"u":01,"v":2}`), uint64(0), uint64(999999999), uint16(0), byte(' '), uint8(0))
	f.Add([]byte(`{"u":1234567890,"v":2}`), uint64(16384), uint64(16383), uint16(13), byte('9'), uint8(1))
	f.Add([]byte(`{"v":2,"u":1}`), uint64(10), uint64(255), uint16(2), byte('U'), uint8(0))
	f.Add([]byte(`{"u":-1,"v":1e2}`), uint64(1), uint64(0), uint16(6), byte('-'), uint8(2))
	f.Add([]byte(`{"u":1,"v":2}}`), uint64(256), uint64(9), uint16(99), byte('}'), uint8(1))
	f.Fuzz(func(t *testing.T, line []byte, u, v uint64, at uint16, b byte, op uint8) {
		agreesWithJSON(t, line)
		u, v = u%1_000_000_000, v%1_000_000_000
		canon := fmt.Appendf(nil, `{"u":%d,"v":%d}`, u, v)
		if gu, gv, ok := canonicalLine(canon); !ok || gu != int(u) || gv != int(v) {
			t.Fatalf("canonicalLine(%s) = (%d, %d, %v), want (%d, %d, true)", canon, gu, gv, ok, u, v)
		}
		i := int(at) % len(canon)
		var edited []byte
		switch op % 3 {
		case 0: // replace one byte
			edited = append(edited, canon...)
			edited[i] = b
		case 1: // insert one byte
			edited = append(append(append(edited, canon[:i]...), b), canon[i:]...)
		default: // delete one byte
			edited = append(append(edited, canon[:i]...), canon[i+1:]...)
		}
		agreesWithJSON(t, edited)
	})
}

// TestIngestResponsesUnchanged pins the ingest answers, status,
// Content-Type and body bytes, for lines at the edge of the compact
// form; each is the answer decoding every line with encoding/json gives.
// A 202 must also have decoded what encoding/json decodes: the
// instance's state must equal a twin's that was fed json.Unmarshal's
// reading of the body in process.
func TestIngestResponsesUnchanged(t *testing.T) {
	long := `{"u":1,"v":2` + strings.Repeat(" ", 1<<20) + `}`
	// Every answer, 202 and 400 alike, carries this one Content-Type.
	const ctype = "application/json"
	for _, c := range []struct {
		line string // the body, without its final newline
		code int
		resp string // the response body, without its final newline
	}{
		{`{"u":01,"v":2}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":01,\\\"v\\\":2}\": invalid character '1' after object key:value pair"}`},
		{`{"u":1,"v":00}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":1,\\\"v\\\":00}\": invalid character '0' after object key:value pair"}`},
		{`{"u":1234567890,"v":2}`, 400, `{"error":"serve: interaction {1234567890 2} invalid for n=8"}`},
		{`{"u":1,"v":1234567890}`, 400, `{"error":"serve: interaction {1 1234567890} invalid for n=8"}`},
		{`{"u":-1,"v":2}`, 400, `{"error":"serve: interaction {-1 2} invalid for n=8"}`},
		{`{"u":+1,"v":2}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":+1,\\\"v\\\":2}\": invalid character '+' looking for beginning of value"}`},
		{`{"u":1e2,"v":2}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":1e2,\\\"v\\\":2}\": json: cannot unmarshal number 1e2 into Go struct field ingestLine.u of type int"}`},
		{`{"u":1.0,"v":0}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":1.0,\\\"v\\\":0}\": json: cannot unmarshal number 1.0 into Go struct field ingestLine.u of type int"}`},
		{`{"u": 1, "v": 0}`, 202, `{"ops":1}`},
		{` {"u":1,"v":0}`, 202, `{"ops":1}`},
		{`{"U":2,"V":0}`, 202, `{"ops":1}`},
		{`{"v":0,"u":3}`, 202, `{"ops":1}`},
		{`{"u":4,"u":5,"v":0}`, 202, `{"ops":1}`},
		{`{"u":1,"v":2}}`, 400, `{"error":"bad ingest line \"{\\\"u\\\":1,\\\"v\\\":2}}\": invalid character '}' after top-level value"}`},
		{`{"u":1,"v":2,"w":3}`, 202, `{"ops":1}`},
		{`{"u":999999999,"v":0}`, 400, `{"error":"serve: interaction {999999999 0} invalid for n=8"}`},
		{"{\"u\":6,\"v\":0}\r\n\n{\"v\":0, \"u\":7}", 202, `{"ops":2}`},
		{long, 400, `{"error":"bufio.Scanner: token too long"}`},
	} {
		label := c.line
		if len(label) > 40 {
			label = label[:40] + "..."
		}
		s := newTestServer(t, Options{})
		inst := mustRegister(t, s, InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"})
		twin := mustRegister(t, s, InstanceConfig{Name: "twin", N: 8, Algorithm: "waiting"})
		rec := post(s, "/v1/instances/w/ingest?seq=1&wait=1", []byte(c.line+"\n"))
		if rec.Code != c.code || rec.Body.String() != c.resp+"\n" {
			t.Errorf("%q: %d %q, want %d %q", label, rec.Code, rec.Body, c.code, c.resp+"\n")
			continue
		}
		if got := rec.Header().Values("Content-Type"); len(got) != 1 || got[0] != ctype {
			t.Errorf("%q: Content-Type %q, want [%q]", label, got, ctype)
		}
		if c.code != http.StatusAccepted {
			continue
		}
		var its []seq.Interaction
		for _, line := range strings.Split(c.line, "\n") {
			if line = strings.TrimSuffix(line, "\r"); line == "" {
				continue
			}
			var l ingestLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				t.Fatal(err)
			}
			its = append(its, it(l.U, l.V))
		}
		feedSeq(t, twin, its, 1)
		if got, want := mustState(t, inst), mustState(t, twin); !bytes.Equal(got, want) {
			t.Errorf("%q: state %s, encoding/json's reading gives %s", label, got, want)
		}
	}
}

// TestIngestHandlerAllocs gates the allocations of one HTTP ingest: a
// 256-line compact body, stamped and waited, on an ephemeral waiting
// instance that never terminates. Every line decoded through
// encoding/json costs several allocations (over 1,300 per request), so
// any per-line allocation fails the count; a batch slice or Scanner
// buffer made per request (8.7 KB and 4 KiB) fails the bytes bound.
// Neither figure depends on the host.
func TestIngestHandlerAllocs(t *testing.T) {
	const (
		n        = 256
		runs     = 20
		max      = 17
		maxBytes = 4 << 10
	)
	s := newTestServer(t, Options{})
	inst := mustRegister(t, s, InstanceConfig{Name: "w", N: n, Algorithm: "waiting"})
	var body []byte
	for _, x := range offSinkBatch(n, 256, 1) {
		body = fmt.Appendf(body, "{\"u\":%d,\"v\":%d}\n", x.U, x.V)
	}
	h := s.Handler()
	// AllocsPerRun makes one warm-up call before its runs.
	reqs := make([]*http.Request, runs+1)
	recs := make([]*httptest.ResponseRecorder, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/instances/w/ingest?seq=%d&wait=1", i+1), bytes.NewReader(body))
		recs[i] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		switch {
		case i == 0 && raceEnabled:
			// The race detector's sync.Pool drops a quarter of all Puts,
			// so a recycled buffer set can vanish between two requests.
			// Stock the pool, on the one P AllocsPerRun leaves, with
			// more sets than the runs can lose; without -race the
			// handler's own recycling must carry every run.
			for k := 0; k < 4*(runs+1); k++ {
				ingestPool.Put(&ingestBufs{line: make([]byte, 4096), its: make([]seq.Interaction, 0, n)})
			}
		case i == 1:
			runtime.ReadMemStats(&before)
		}
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	runtime.ReadMemStats(&after)
	for i, rec := range recs {
		if rec.Code != http.StatusAccepted {
			t.Fatalf("request %d: %d %s", i+1, rec.Code, rec.Body)
		}
	}
	if st := inst.Status(); st.AppliedOps != (runs+1)*256 {
		t.Fatalf("applied_ops = %d, want %d", st.AppliedOps, (runs+1)*256)
	}
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs and %d B per 256-line ingest", allocs, perReq)
	if allocs > max {
		t.Fatalf("%.0f allocs per 256-line ingest, want at most %d", allocs, max)
	}
	if perReq > maxBytes {
		t.Fatalf("%d B allocated per 256-line ingest, want at most %d", perReq, maxBytes)
	}
}

// stampedBatch is batch seqNo of instance i: size off-sink interactions
// among n nodes, one of them replaced by a meeting of the sink with a
// node that names (i, seqNo). A waiting instance hands that node's datum
// to the sink, so a batch applied in place of another leaves a different
// owner set, and the state shows it. Every seventh line is spaced, so
// both decode paths fill the slice.
func stampedBatch(n, size, i int, seqNo uint64) ([]seq.Interaction, []byte) {
	its := offSinkBatch(n, size, uint64(i)<<32|seqNo)
	its[int(seqNo)%size] = it(0, 1+(2*int(seqNo)+i)%(n-1))
	var body []byte
	for k, x := range its {
		if k%7 == 0 {
			body = fmt.Appendf(body, "{\"v\": %d, \"u\": %d}\n", x.V, x.U)
		} else {
			body = fmt.Appendf(body, "{\"u\":%d,\"v\":%d}\n", x.U, x.V)
		}
	}
	return its, body
}

// TestIngestRecycledBatchesStayIntact checks that recycling the
// handler's decode slices never changes what an instance applies or
// journals. Four goroutines post stamped batches to two instances
// through Handler(), waited and unwaited mixed, and some waited ones
// queue behind a 4,096-interaction batch with their context cancelled
// before the apply, so their answer is a 409 while the batch stays
// queued. Every final state must equal a twin's that was fed the same
// batches in process. On a durable server that rotates every 64
// interactions, each rotation re-journals the queued batches while
// waited ones recycle, and the state must also survive Close and reopen.
func TestIngestRecycledBatchesStayIntact(t *testing.T) {
	const (
		n         = 256
		instances = 2
		posters   = 4
		posts     = 24 // per poster
	)
	for _, name := range []string{"ephemeral", "durable"} {
		durable := name == "durable"
		t.Run(name, func(t *testing.T) {
			opt := Options{MaxPending: 1 << 16}
			if durable {
				opt.Dir, opt.SnapshotEvery = t.TempDir(), 64
			}
			s, err := NewServer(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			h := s.Handler()
			type stream struct {
				mu   sync.Mutex
				sent [][]seq.Interaction // sent[k] went out at seq k+1
			}
			streams := make([]*stream, instances)
			for i := range streams {
				streams[i] = &stream{}
				mustRegister(t, s, waitCfg(fmt.Sprintf("i%d", i), n))
			}
			// post sends the next batch of instance i; the caller holds its
			// stream's lock, so each instance sees its seqs in order.
			post := func(ctx context.Context, i, size int, wait bool) *httptest.ResponseRecorder {
				st := streams[i]
				seqNo := uint64(len(st.sent) + 1)
				its, body := stampedBatch(n, size, i, seqNo)
				target := fmt.Sprintf("/v1/instances/i%d/ingest?seq=%d", i, seqNo)
				if wait {
					target += "&wait=1"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)).WithContext(ctx))
				if rec.Code == http.StatusAccepted || rec.Code == http.StatusConflict {
					st.sent = append(st.sent, its) // a 409 here is a cancelled wait: queued all the same
				}
				return rec
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			var wg sync.WaitGroup
			for g := 0; g < posters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for k := 0; k < posts; k++ {
						i := (g + k) % instances
						st := streams[i]
						st.mu.Lock()
						if k%8 == 5 {
							// Queue a batch the worker takes a while to apply, then
							// a waited one whose client is already gone. Should the
							// worker win the race anyway, the ack is a 202; try again.
							for try := 0; ; try++ {
								if rec := post(context.Background(), i, 4096, false); rec.Code != http.StatusAccepted {
									t.Errorf("i%d: large unwaited batch: %d %s", i, rec.Code, rec.Body)
									break
								}
								rec := post(cancelled, i, 256, true)
								if rec.Code == http.StatusConflict && strings.Contains(rec.Body.String(), context.Canceled.Error()) {
									break
								}
								if rec.Code != http.StatusAccepted || try == 9 {
									t.Errorf("i%d: cancelled wait: %d %s, want a 409 %q", i, rec.Code, rec.Body, context.Canceled)
									break
								}
							}
						} else if rec := post(context.Background(), i, 256, (g+k)%3 != 0); rec.Code != http.StatusAccepted {
							t.Errorf("i%d: %d %s", i, rec.Code, rec.Body)
						}
						st.mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			ref := newTestServer(t, Options{MaxPending: 1 << 16})
			want := make([][]byte, instances)
			for i, st := range streams {
				twin := mustRegister(t, ref, waitCfg(fmt.Sprintf("i%d", i), n))
				for k, its := range st.sent {
					feedSeq(t, twin, its, uint64(k+1))
				}
				want[i] = append(mustState(t, twin), '\n')
			}
			check := func(h http.Handler, when string) {
				t.Helper()
				for i := range streams {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/instances/i%d/state", i), nil))
					if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
						t.Errorf("%s: i%d state %d %s, twin's is %s", when, i, rec.Code, rec.Body, want[i])
					}
				}
			}
			check(h, "after the posts")
			if !durable {
				return
			}
			s.Close()
			if s, err = NewServer(opt); err != nil {
				t.Fatal(err)
			}
			check(s.Handler(), "after reopen")
		})
	}
}
