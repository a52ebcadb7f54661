package doda

import (
	"context"
	"errors"
	"testing"
	"time"

	"doda/internal/seq"
	"doda/internal/serve"
)

// TestServeReexports drives a tiny end-to-end aggregation through an
// in-process server registered with the root package's
// ServeInstanceConfig: register, ingest a star that gathers everything
// at the sink, and read the terminated state back.
func TestServeReexports(t *testing.T) {
	srv, err := serve.NewServer(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inst, err := srv.Register(ServeInstanceConfig{
		Name: "root", N: 4, Algorithm: "gathering", Agg: "sum",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var star []Interaction
	for v := NodeID(1); v < 4; v++ {
		it, err := seq.NewInteraction(0, v)
		if err != nil {
			t.Fatal(err)
		}
		star = append(star, it)
	}
	// The star alone may leave the last transfer pending; repeat it so
	// the sink meets every remaining owner again.
	for round := 0; round < 4; round++ {
		h, err := inst.Ingest(ctx, star, 0)
		if errors.Is(err, serve.ErrInstanceDone) {
			break // terminated before the full schedule — the goal state
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st, err := inst.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Result.Terminated {
		t.Fatalf("gathering on a repeated star must terminate: %+v", st.Result)
	}
}
