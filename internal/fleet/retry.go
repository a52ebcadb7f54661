package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"doda/internal/retry"
)

// maxResponseBytes bounds how much of a (possibly hostile or confused)
// peer response a client will read before deciding.
const maxResponseBytes = 8 << 20

// RetryPolicy bounds and paces re-attempts of one protocol call after a
// transient failure (connection reset, timeout, 5xx, garbled response
// body); the zero value means retry.Policy's defaults.
type RetryPolicy = retry.Policy

// transient reports whether one call outcome is worth retrying:
// transport errors (resets, timeouts) and garbled response bodies
// surface as err != nil, and any 5xx answer is a server that may heal —
// all transient. Every other HTTP status (410 Gone above all) is a
// deliberate answer and terminal.
func transient(code int, err error) bool {
	if err != nil {
		return true
	}
	return code >= 500
}

// postJSONRetry is postJSON under a RetryPolicy: transient failures are
// retried with deterministic jittered backoff until the budget is
// exhausted; terminal outcomes (2xx, 410, other 4xx, context
// cancellation) return immediately. The returned error wraps the last
// transient failure so callers can report why the budget died.
func postJSONRetry(ctx context.Context, client *http.Client, url string, body, dst any, p RetryPolicy, seed, call uint64) (int, error) {
	var code int
	err := p.Do(ctx, "fleet: "+url, seed, call, func() error {
		var err error
		code, err = postJSON(ctx, client, url, body, dst)
		if err == nil && transient(code, nil) {
			err = fmt.Errorf("HTTP %d", code)
		}
		return err
	}, func(error) (bool, time.Duration) { return true, 0 }) // try fails only transiently
	return code, err
}

// postJSON posts a JSON body and decodes the JSON response, returning
// the HTTP status code. The response read is bounded, only 2xx bodies
// are decoded, and decoding goes through a fresh value that is copied
// into dst only on full success — a truncated or hostile body can error
// but never panic or leave dst half-written.
func postJSON(ctx context.Context, client *http.Client, url string, body, dst any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeBody(resp, url, dst)
}

// decodeBody applies the hardened response-decoding contract shared by
// postJSON and FetchStatus.
func decodeBody(resp *http.Response, url string, dst any) error {
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("fleet: reading response from %s: %w", url, err)
	}
	if dst == nil || resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil // an empty body reads as the zero value
	}
	if err := retry.DecodeJSON(data, dst); err != nil {
		return fmt.Errorf("fleet: decoding response from %s: %w", url, err)
	}
	return nil
}
