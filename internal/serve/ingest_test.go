package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestIngestResponsesUnchanged pins the ingest answers, status and body
// bytes, for lines at the edge of the compact form; each is the answer
// decoding every line with encoding/json gives. A 202 must also have
// decoded what encoding/json decodes: the instance's state must equal a
// twin's that was fed json.Unmarshal's reading of the body in process.
func TestIngestResponsesUnchanged(t *testing.T) {
	long := `{"u":1,"v":2` + strings.Repeat(" ", 1<<20) + `}`
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
// any per-line allocation fails the gate; the count does not depend on
// the host.
func TestIngestHandlerAllocs(t *testing.T) {
	const (
		n    = 256
		runs = 20
		max  = 100
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
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		h.ServeHTTP(recs[i], reqs[i])
		i++
	})
	for i, rec := range recs {
		if rec.Code != http.StatusAccepted {
			t.Fatalf("request %d: %d %s", i+1, rec.Code, rec.Body)
		}
	}
	if st := inst.Status(); st.AppliedOps != (runs+1)*256 {
		t.Fatalf("applied_ops = %d, want %d", st.AppliedOps, (runs+1)*256)
	}
	t.Logf("%.0f allocs per 256-line ingest", allocs)
	if allocs > max {
		t.Fatalf("%.0f allocs per 256-line ingest, want at most %d", allocs, max)
	}
}
