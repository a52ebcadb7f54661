package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"doda/internal/graph"
	"doda/internal/seq"
)

// ingestLine is one JSONL ingest body line.
type ingestLine struct {
	U int `json:"u"`
	V int `json:"v"`
}

// canonicalLine parses exactly the line {"u":D,"v":D} that serveclient
// writes, where each D is 0 or a digit 1–9 followed by at most 8 more
// digits. ok is false for any other line: a sign, a leading zero, an
// exponent, a tenth digit, whitespace, another key or key order, or a
// trailing byte. encoding/json reads every line canonicalLine takes to
// the same values, so the handler sends only declined lines to it.
func canonicalLine(line []byte) (u, v int, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"u":`))
	if !ok {
		return 0, 0, false
	}
	if u, rest, ok = canonicalInt(rest); !ok {
		return 0, 0, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"v":`)); !ok {
		return 0, 0, false
	}
	if v, rest, ok = canonicalInt(rest); !ok || string(rest) != "}" {
		return 0, 0, false
	}
	return u, v, true
}

// canonicalInt reads the integer D that starts b and returns the bytes
// after it. It reads at most 9 digits, so it cannot overflow; a tenth
// digit stays in rest, where canonicalLine's next expected byte
// declines it.
func canonicalInt(b []byte) (n int, rest []byte, ok bool) {
	if len(b) == 0 || b[0] < '0' || b[0] > '9' {
		return 0, b, false
	}
	if b[0] == '0' {
		return 0, b[1:], true
	}
	i := 0
	for ; i < len(b) && i < 9 && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int(b[i]-'0')
	}
	return n, b[i:], true
}

// maxIngestBody bounds one ingest request (16 MiB of JSONL).
const maxIngestBody = 16 << 20

// maxIngestLine bounds one ingest line; a longer one is a 400.
const maxIngestLine = 1 << 20

// maxPooledBatch is the largest batch capacity ingestPool keeps, so
// one huge body does not stay pinned in it.
const maxPooledBatch = 1 << 16

// ingestBufs is one HTTP ingest's decode memory: the Scanner's first
// line buffer and the slice the lines decode into.
type ingestBufs struct {
	line []byte
	its  []seq.Interaction
}

// ingestPool recycles ingestBufs across HTTP ingests. The line buffer
// goes back when the handler returns; the batch slice only after a
// waited ingest was applied, when no queue entry, worker or rotation
// still refers to it.
var ingestPool = sync.Pool{New: func() any {
	return &ingestBufs{line: make([]byte, 4096)}
}}

// retryAfter is the client back-off hint sent with 429 responses.
const retryAfter = 1 * time.Second

// Handler returns the server's HTTP API:
//
//	POST   /v1/instances              register (InstanceConfig JSON body)
//	GET    /v1/instances/{name}       instance status
//	DELETE /v1/instances/{name}       remove instance
//	POST   /v1/instances/{name}/ingest JSONL lines, each a JSON object
//	       with integer "u" and "v"; the compact {"u":3,"v":7} form is
//	       decoded without encoding/json. ?seq=N stamps the batch;
//	       any non-empty ?wait= value (wait=1) blocks until applied
//	GET    /v1/instances/{name}/state  deterministic EngineState JSON
//	GET    /v1/status                 all-instance snapshot
//	GET    /healthz                   process liveness (always 200)
//	GET    /readyz                    admission readiness (503 draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("POST /v1/instances", s.handleRegister)
	mux.HandleFunc("GET /v1/instances/{name}", s.handleInstanceStatus)
	mux.HandleFunc("DELETE /v1/instances/{name}", s.handleRemove)
	mux.HandleFunc("POST /v1/instances/{name}/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/instances/{name}/state", s.handleState)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// writeAck writes the 202 answer to an ingest, {"ops":N} with N the
// interactions the body held, in the bytes writeJSON would write. It
// builds the body in buf's memory; 32 bytes hold any N.
func writeAck(w http.ResponseWriter, buf []byte, ops int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	body := strconv.AppendInt(append(buf[:0], `{"ops":`...), int64(ops), 10)
	w.Write(append(body, "}\n"...))
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var cfg InstanceConfig
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&cfg); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad config: %v", err)})
		return
	}
	inst, err := s.Register(cfg)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, inst.Status())
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) instanceOf(w http.ResponseWriter, r *http.Request) (*Instance, bool) {
	name := r.PathValue("name")
	inst, ok := s.Get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("no instance %q", name)})
		return nil, false
	}
	return inst, true
}

func (s *Server) handleInstanceStatus(w http.ResponseWriter, r *http.Request) {
	if inst, ok := s.instanceOf(w, r); ok {
		writeJSON(w, http.StatusOK, inst.Status())
	}
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	if err := s.Remove(inst.Name()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleIngest is the JSONL ingest endpoint. Backpressure is explicit:
// a full instance queue answers 429 Too Many Requests with a Retry-After
// header — the client retries, nothing is dropped silently.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: ErrDraining.Error()})
		return
	}
	query := r.URL.Query()
	var seqNo uint64
	if q := query.Get("seq"); q != "" {
		var err error
		seqNo, err = strconv.ParseUint(q, 10, 64)
		if err != nil || seqNo == 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "seq must be a positive integer"})
			return
		}
	}
	bufs := ingestPool.Get().(*ingestBufs)
	its := bufs.its[:0]
	applied := false
	defer func() {
		bufs.its = nil // an unapplied batch may still be queued
		if applied && cap(its) <= maxPooledBatch {
			bufs.its = its[:0]
		}
		ingestPool.Put(bufs)
	}()
	sc := bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxIngestBody))
	// The pooled 4 KiB buffer grows only for longer lines, up to the
	// line limit; a grown buffer is not kept.
	sc.Buffer(bufs.line, maxIngestLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		u, v, ok := canonicalLine(line)
		if !ok {
			var rec ingestLine
			if err := json.Unmarshal(line, &rec); err != nil {
				writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad ingest line %q: %v", line, err)})
				return
			}
			u, v = rec.U, rec.V
		}
		its = append(its, seq.Interaction{U: graph.NodeID(u), V: graph.NodeID(v)})
	}
	if err := sc.Err(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	h, err := inst.TryIngest(its, seqNo)
	switch {
	case err == nil:
	case errors.Is(err, ErrBackpressure) || errors.Is(err, ErrWAL):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:        err.Error(),
			RetryAfterMs: retryAfter.Milliseconds(),
		})
		return
	case errors.Is(err, ErrInstanceDone):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrInstanceFailed), errors.Is(err, ErrInstanceClosed):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrSequenceGap):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	if query.Get("wait") != "" {
		if err := h.Wait(r.Context()); err != nil {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
			return
		}
		// The worker has applied the batch and dropped it, or it was a
		// duplicate that never queued: the slice may be reused.
		applied = true
	}
	writeAck(w, bufs.line, len(its))
}

// handleState serves the deterministic engine snapshot the recovery
// tests diff byte-for-byte.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	inst, ok := s.instanceOf(w, r)
	if !ok {
		return
	}
	st, err := inst.State(r.Context())
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}
