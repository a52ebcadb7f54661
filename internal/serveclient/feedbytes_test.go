//go:build !race

package serveclient

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"doda/internal/graph"
	"doda/internal/seq"
)

// TestFeedBytes bounds what one Feed of a 256-line batch allocates
// through recordingTransport: the exact-size body plus at most 3 KiB
// of request and answer bookkeeping. A body sized at 24 bytes per
// interaction (6 KiB here, where the body is 4,385 B) or an answer
// read with io.ReadAll fails it; Feed with both made 8,993 B. It runs
// without the race detector only: there sync.Pool drops a quarter of
// its Puts, and the drain of the answer takes its buffer from
// io.Discard's pool.
func TestFeedBytes(t *testing.T) {
	const runs, slack = 200, 3 << 10
	var its []seq.Interaction
	bodyLen := 0
	for _, uv := range offSinkBatch(256, 256, 1) {
		its = append(its, seq.Interaction{U: graph.NodeID(uv[0]), V: graph.NodeID(uv[1])})
		bodyLen += len(`{"u":` + strconv.Itoa(uv[0]) + `,"v":` + strconv.Itoa(uv[1]) + "}\n")
	}
	c := New("http://127.0.0.1:7499", Options{HTTPClient: &http.Client{Transport: &recordingTransport{}}})
	ctx := context.Background()
	if err := c.Feed(ctx, "w", its, 1); err != nil { // warm the transport's buffer
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := c.Feed(ctx, "w", its, uint64(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFeed := int((after.TotalAlloc - before.TotalAlloc) / runs)
	t.Logf("%d B per Feed of a %d-byte body", perFeed, bodyLen)
	if perFeed > bodyLen+slack {
		t.Fatalf("%d B per Feed of a %d-byte body, want at most %d", perFeed, bodyLen, bodyLen+slack)
	}
}
