package serveclient

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"doda/internal/graph"
	"doda/internal/seq"
)

// DefaultBatchSize is how many interactions Add buffers before an
// automatic Flush.
const DefaultBatchSize = 256

// Stream is a seq-stamped feeder for one instance. It owns the
// client-side sequence counter: every batch it sends carries the next
// number, and the counter only advances on a confirmed ack — so any
// failed Flush can simply be retried (same seq, same bytes) and the
// server's journal-before-ack dup handling keeps application
// exactly-once. A Stream is not safe for concurrent use; run one
// goroutine per instance.
type Stream struct {
	c     *Client
	name  string
	next  uint64
	batch int
	buf   []seq.Interaction
}

// Stream opens a feeder for name, resuming the sequence from the
// server's journal (LastSeq+1) so a restarted client carries on where
// the acknowledged prefix ends. batchSize ≤ 0 uses DefaultBatchSize.
func (c *Client) Stream(ctx context.Context, name string, batchSize int) (*Stream, error) {
	st, err := c.InstanceStatus(ctx, name)
	if err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Stream{c: c, name: name, next: st.LastSeq + 1, batch: batchSize}, nil
}

// Seq returns the sequence number the next sent batch will carry.
func (s *Stream) Seq() uint64 { return s.next }

// Add buffers one interaction, flushing automatically when the buffer
// reaches the batch size. On error the interaction stays buffered;
// calling Add or Flush again retries the same batch under the same seq.
func (s *Stream) Add(ctx context.Context, u, v int) error {
	s.buf = append(s.buf, seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)})
	if len(s.buf) >= s.batch {
		return s.Flush(ctx)
	}
	return nil
}

// Flush sends the buffered batch and waits for it to apply. The buffer
// is cleared and the sequence advanced only on success.
func (s *Stream) Flush(ctx context.Context) error {
	if len(s.buf) == 0 {
		return nil
	}
	if err := s.send(ctx, s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	return nil
}

// Feed flushes any buffered interactions, then sends its as one batch.
func (s *Stream) Feed(ctx context.Context, its []seq.Interaction) error {
	if err := s.Flush(ctx); err != nil {
		return err
	}
	if len(its) == 0 {
		return nil
	}
	return s.send(ctx, its)
}

func (s *Stream) send(ctx context.Context, its []seq.Interaction) error {
	if err := s.c.Feed(ctx, s.name, its, s.next); err != nil {
		return err
	}
	s.next++
	return nil
}

// Feed sends one batch at an explicit sequence number and waits for it
// to apply. A batch the server already acknowledged at that seq is
// acked again without re-applying, so replaying a whole workload from
// seq 1 after a crash is safe — the exactly-once path crash-recovery
// drivers lean on. Most callers want a Stream, which tracks the counter.
func (c *Client) Feed(ctx context.Context, name string, its []seq.Interaction, seqNo uint64) error {
	size := 0
	for _, it := range its {
		size += len(`{"u":,"v":}`+"\n") + decimalLen(int64(it.U)) + decimalLen(int64(it.V))
	}
	body := make([]byte, 0, size)
	for _, it := range its {
		body = append(body, `{"u":`...)
		body = strconv.AppendInt(body, int64(it.U), 10)
		body = append(body, `,"v":`...)
		body = strconv.AppendInt(body, int64(it.V), 10)
		body = append(body, "}\n"...)
	}
	path := instancePath(name, "/ingest") + "?wait=1&seq=" + strconv.FormatUint(seqNo, 10)
	if err := c.do(ctx, http.MethodPost, path, "application/x-ndjson", body, nil); err != nil {
		return fmt.Errorf("serveclient: feed %s seq %d: %w", name, seqNo, err)
	}
	return nil
}

// decimalLen is the length of strconv.AppendInt(nil, x, 10).
func decimalLen(x int64) int {
	n, mag := 1, uint64(x)
	if x < 0 {
		n, mag = 2, -mag
	}
	for ; mag >= 10; mag /= 10 {
		n++
	}
	return n
}
