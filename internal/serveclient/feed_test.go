package serveclient

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"doda/internal/graph"
	"doda/internal/seq"
)

// recordingTransport answers every request in process with the 202 a
// server gives a 256-line ingest, and keeps the last request's method,
// URL, Content-Type and body. After its first call it allocates only
// the answer, so it adds a fixed cost to each Feed it serves.
type recordingTransport struct {
	method, url, contentType string
	body                     bytes.Buffer
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.method, rt.url, rt.contentType = req.Method, req.URL.String(), req.Header.Get("Content-Type")
	rt.body.Reset()
	if _, err := rt.body.ReadFrom(req.Body); err != nil {
		return nil, err
	}
	req.Body.Close()
	return &http.Response{
		StatusCode: http.StatusAccepted,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader("{\"ops\":256}\n")),
		Request:    req,
	}, nil
}

// TestFeedRequestUnchanged pins the request Feed writes: method, URL,
// Content-Type and body bytes, for ids around digit counts, the node
// ceiling, the server's 9-digit fast path, a sign and the int32 and
// int64 limits. The expected values are the ones Feed wrote when it
// still sized its body at 24 bytes per interaction.
func TestFeedRequestUnchanged(t *testing.T) {
	ids := []int{0, 1, 9, 10, 99, 100, 16383, 999999999, -1, math.MaxInt32, math.MaxInt64}
	var its []seq.Interaction
	for i, u := range ids {
		its = append(its, seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(ids[len(ids)-1-i])})
	}
	rt := &recordingTransport{}
	c := New("http://127.0.0.1:7499", Options{HTTPClient: &http.Client{Transport: rt}})
	if err := c.Feed(context.Background(), "w", its, 7); err != nil {
		t.Fatal(err)
	}
	const body = "{\"u\":0,\"v\":9223372036854775807}\n" +
		"{\"u\":1,\"v\":2147483647}\n" +
		"{\"u\":9,\"v\":-1}\n" +
		"{\"u\":10,\"v\":999999999}\n" +
		"{\"u\":99,\"v\":16383}\n" +
		"{\"u\":100,\"v\":100}\n" +
		"{\"u\":16383,\"v\":99}\n" +
		"{\"u\":999999999,\"v\":10}\n" +
		"{\"u\":-1,\"v\":9}\n" +
		"{\"u\":2147483647,\"v\":1}\n" +
		"{\"u\":9223372036854775807,\"v\":0}\n"
	for _, c := range []struct{ what, got, want string }{
		{"method", rt.method, http.MethodPost},
		{"URL", rt.url, "http://127.0.0.1:7499/v1/instances/w/ingest?wait=1&seq=7"},
		{"Content-Type", rt.contentType, "application/x-ndjson"},
		{"body", rt.body.String(), body},
	} {
		if c.got != c.want {
			t.Errorf("%s %q, want %q", c.what, c.got, c.want)
		}
	}
}

// TestDecimalLen checks Feed's body sizing against strconv at every
// digit-count edge and both int64 limits.
func TestDecimalLen(t *testing.T) {
	xs := []int64{0, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for p := int64(1); p <= math.MaxInt64/10; p *= 10 {
		xs = append(xs, p-1, p, -p+1, -p, 10*p-1, -10*p+1)
	}
	for _, x := range xs {
		if got, want := decimalLen(x), len(strconv.FormatInt(x, 10)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", x, got, want)
		}
	}
}
