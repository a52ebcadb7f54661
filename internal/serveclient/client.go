package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"doda/internal/core"
	"doda/internal/retry"
	"doda/internal/serve"
)

// maxResponseBytes bounds how much of a (possibly hostile or confused)
// server response the client reads before deciding.
const maxResponseBytes = 8 << 20

// maxErrorBytes bounds how much of an error body is kept in an
// APIError message.
const maxErrorBytes = 512

// maxRetryAfter caps how long the client honors a server's Retry-After
// hint, so a broken clock or hostile header cannot park the retry loop.
const maxRetryAfter = time.Minute

// RetryPolicy bounds and paces re-attempts of one call after a
// transient failure, the same policy the fleet worker uses; the zero
// value means retry.Policy's defaults.
type RetryPolicy = retry.Policy

// APIError is a deliberate non-2xx answer from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's backpressure hint on 429 (0 = none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serveclient: HTTP %d: %s", e.Status, e.Message)
}

// Options configures a Client.
type Options struct {
	// HTTPClient issues the requests (default http.DefaultClient). Point
	// its Transport at chaos.NewTransport to fault-inject the client.
	HTTPClient *http.Client
	// Retry is the per-call retry policy (zero value = defaults).
	Retry RetryPolicy
	// Seed decorrelates backoff jitter across client processes.
	Seed uint64
}

// Client talks to one dodaserve process.
type Client struct {
	base  string
	hc    *http.Client
	rp    RetryPolicy
	seed  uint64
	calls atomic.Uint64
}

// New builds a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080").
func New(baseURL string, opt Options) *Client {
	hc := opt.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   hc,
		rp:   opt.Retry,
		seed: opt.Seed,
	}
}

// transient reports whether a failed call is worth retrying, and the
// least delay the server asked for: transport errors and garbled bodies
// are transient, 5xx is a server that may heal, and 429 is flow control
// — all transient under the bounded budget, honouring Retry-After. Every
// other status is a deliberate answer.
func transient(err error) (bool, time.Duration) {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests, ae.RetryAfter
	}
	return true, 0
}

// do issues one API call under the retry policy. body (may be nil) is
// re-sent verbatim on every attempt; the caller guarantees the request
// is idempotent (seq-stamped ingests, registrations by name, reads).
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, dst any) error {
	return c.rp.Do(ctx, "serveclient: "+method+" "+path, c.seed, c.calls.Add(1), func() error {
		return c.doOnce(ctx, method, path, contentType, body, dst)
	}, transient)
}

func (c *Client) doOnce(ctx context.Context, method, path, contentType string, body []byte, dst any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	answer := io.LimitReader(resp.Body, maxResponseBytes)
	if dst == nil && resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		// decodeResponse would ignore the body: drain it, so the
		// connection can be reused, without buffering it.
		if _, err := io.Copy(io.Discard, answer); err != nil {
			return fmt.Errorf("serveclient: reading response: %w", err)
		}
		return nil
	}
	data, err := io.ReadAll(answer)
	if err != nil {
		return fmt.Errorf("serveclient: reading response: %w", err)
	}
	return decodeResponse(resp.StatusCode, resp.Header.Get("Retry-After"), data, dst)
}

// decodeResponse interprets one HTTP exchange. 2xx bodies decode into
// dst all-or-nothing (a fresh value is copied in only on full success);
// non-2xx bodies become an *APIError carrying the server's message and
// Retry-After hint. Pure, so FuzzServeClientResponses can hammer it.
func decodeResponse(status int, retryAfterHeader string, body []byte, dst any) error {
	if status >= 200 && status <= 299 {
		if dst == nil || len(bytes.TrimSpace(body)) == 0 {
			return nil
		}
		if err := retry.DecodeJSON(body, dst); err != nil {
			return fmt.Errorf("serveclient: decoding response: %w", err)
		}
		return nil
	}
	ae := &APIError{Status: status}
	var eb struct {
		Error        string `json:"error"`
		RetryAfterMs int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != "" {
		ae.Message = eb.Error
		if eb.RetryAfterMs > 0 {
			ae.RetryAfter = time.Duration(eb.RetryAfterMs) * time.Millisecond
		}
	} else {
		ae.Message = strings.TrimSpace(string(body))
	}
	if len(ae.Message) > maxErrorBytes {
		ae.Message = ae.Message[:maxErrorBytes]
	}
	if ae.RetryAfter == 0 && retryAfterHeader != "" {
		if secs, err := strconv.Atoi(retryAfterHeader); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	// A broken or hostile hint must not stall the retry loop for hours.
	if ae.RetryAfter < 0 || ae.RetryAfter > maxRetryAfter {
		ae.RetryAfter = maxRetryAfter
	}
	return ae
}

func instancePath(name string, suffix string) string {
	return "/v1/instances/" + url.PathEscape(name) + suffix
}

// Register creates an instance. It is idempotent per name: a retry that
// lost the first response (the server registered, the ack vanished)
// lands on "already exists" and resolves to the live instance's status,
// so callers must re-register with a consistent config.
func (c *Client) Register(ctx context.Context, cfg serve.InstanceConfig) (serve.InstanceStatus, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return serve.InstanceStatus{}, err
	}
	var st serve.InstanceStatus
	err = c.do(ctx, http.MethodPost, "/v1/instances", "application/json", body, &st)
	var ae *APIError
	if errors.As(err, &ae) && strings.Contains(ae.Message, "already exists") {
		return c.InstanceStatus(ctx, cfg.Name)
	}
	return st, err
}

// InstanceStatus fetches one instance's status row.
func (c *Client) InstanceStatus(ctx context.Context, name string) (serve.InstanceStatus, error) {
	var st serve.InstanceStatus
	err := c.do(ctx, http.MethodGet, instancePath(name, ""), "", nil, &st)
	return st, err
}

// Status fetches the all-instance server snapshot.
func (c *Client) Status(ctx context.Context) (serve.ServerStatus, error) {
	var st serve.ServerStatus
	err := c.do(ctx, http.MethodGet, "/v1/status", "", nil, &st)
	return st, err
}

// State fetches an instance's deterministic engine snapshot — the
// document recovery tests diff byte-for-byte. Evicted instances
// rehydrate server-side.
func (c *Client) State(ctx context.Context, name string) (core.EngineState, error) {
	var st core.EngineState
	err := c.do(ctx, http.MethodGet, instancePath(name, "/state"), "", nil, &st)
	return st, err
}

// Remove deletes an instance and its journal.
func (c *Client) Remove(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, instancePath(name, ""), "", nil, nil)
}
