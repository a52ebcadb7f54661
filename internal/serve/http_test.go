package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends body to the server's HTTP API in-process and returns the
// recorded response.
func post(s *Server, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
	return rec
}

// TestRegisterNodeCeiling pins the registration ceiling: an n above
// maxNodes is a 400 naming the limit and adds no instance, over HTTP and
// in process, instead of an arena of n·⌈n/64⌉ words; n = maxNodes still
// registers.
func TestRegisterNodeCeiling(t *testing.T) {
	s := newTestServer(t, Options{})
	over := maxNodes + 1
	rec := post(s, "/v1/instances", []byte(fmt.Sprintf(`{"name":"big","n":%d,"algorithm":"gathering"}`, over)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), fmt.Sprint(maxNodes)) {
		t.Fatalf("n=%d: %d %s, want 400 naming the limit %d", over, rec.Code, rec.Body, maxNodes)
	}
	if _, err := s.Register(gatherCfg("big", over)); err == nil {
		t.Fatalf("in-process Register(n=%d) should fail", over)
	}
	if _, ok := s.Get("big"); ok {
		t.Fatal("a refused registration added an instance")
	}
	rec = post(s, "/v1/instances", []byte(fmt.Sprintf(`{"name":"max","n":%d,"algorithm":"gathering"}`, maxNodes)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("n=%d: %d %s, want 201", maxNodes, rec.Code, rec.Body)
	}
}

// FuzzRegisterBody feeds arbitrary bytes to POST /v1/instances on an
// ephemeral server. The handler must not panic, must answer 201 or a
// 4xx, and a 4xx must leave the server without an instance.
func FuzzRegisterBody(f *testing.F) {
	for _, body := range []string{
		`{"name":"big","n":1000000,"algorithm":"gathering"}`,
		`{"name":"g","n":16,"algorithm":"gathering","agg":"sum"}`,
		`{"name":"w","n":8,"algorithm":"waiting","provenance":"count","sink":3}`,
		`{"name":"x","n":2,"algorithm":"waiting","max_interactions":-1}`,
		`{"name":"../x","n":4,"algorithm":"waiting"}`,
		`{"name":"x","n":-4,"algorithm":"waiting"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewServer(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		rec := post(s, "/v1/instances", body)
		total := s.Status().Total
		switch {
		case rec.Code == http.StatusCreated:
			if total != 1 {
				t.Fatalf("201 for %q but %d instances", body, total)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if total != 0 {
				t.Fatalf("%d for %q but %d instances", rec.Code, body, total)
			}
		default:
			t.Fatalf("%d %s for %q, want 201 or 4xx", rec.Code, rec.Body, body)
		}
	})
}

// nonEmptyLines counts the lines of body that bufio.ScanLines yields
// non-empty: the ingest handler skips empty lines and decodes every
// other one as an interaction.
func nonEmptyLines(body []byte) int {
	k := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
			k++
		}
	}
	return k
}

// FuzzIngestBody feeds arbitrary bytes as one stamped, waited ingest to
// a fresh waiting instance (n=8) on an ephemeral server. The handler
// must answer 202 or 400. A 400 leaves the instance untouched; a 202
// journals seq 1 and applies exactly the body's non-empty lines. The
// admission budget exceeds any body's line count, so 429 cannot occur.
func FuzzIngestBody(f *testing.F) {
	for _, body := range []string{
		"{\"u\":1,\"v\":2}\n{\"u\":0,\"v\":7}\n",
		"\n\n{\"u\":3,\"v\":1}\r\n\n{\"v\":5}",
		"{\"u\":3,\"v\":3}\n",
		"{\"u\":0,\"v\":8}\n",
		"{\"u\":-1,\"v\":2}\n",
		"{\"u\":1,\"v\":2}\nnot json\n",
		"null\n",
		"",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewServer(Options{MaxPending: maxIngestBody})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		inst, err := s.Register(InstanceConfig{Name: "w", N: 8, Algorithm: "waiting"})
		if err != nil {
			t.Fatal(err)
		}
		rec := post(s, "/v1/instances/w/ingest?seq=1&wait=1", body)
		st := inst.Status()
		switch rec.Code {
		case http.StatusBadRequest:
			if st.LastSeq != 0 || st.AppliedOps != 0 {
				t.Fatalf("400 for %q but last_seq=%d applied_ops=%d", body, st.LastSeq, st.AppliedOps)
			}
		case http.StatusAccepted:
			if want := nonEmptyLines(body); st.LastSeq != 1 || st.AppliedOps != want {
				t.Fatalf("202 for %q: last_seq=%d applied_ops=%d, want 1 and %d", body, st.LastSeq, st.AppliedOps, want)
			}
		default:
			t.Fatalf("%d %s for %q, want 202 or 400", rec.Code, rec.Body, body)
		}
	})
}
