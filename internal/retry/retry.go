// Package retry is the client-side retry policy the fleet worker and
// serveclient share: bounded attempts, exponential backoff with
// deterministic jitter, and the all-or-nothing JSON decode that makes a
// garbled response safe to retry. Each caller keeps its own rule for
// which failures are transient.
package retry

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"doda/internal/rng"
)

// Policy bounds and paces re-attempts of one call after a transient
// failure. The zero value means the defaults: 8 attempts, 100ms initial
// backoff doubling to a 5s cap, each delay jittered deterministically
// into [d/2, d) so a fleet of clients never retries in lockstep.
type Policy struct {
	// Attempts is the total tries per call (default 8).
	Attempts int
	// Base is the backoff before the second attempt (default 100ms);
	// it doubles per attempt.
	Base time.Duration
	// Max caps the backoff (default 5s).
	Max time.Duration
}

// WithDefaults fills the zero fields with the defaults.
func (p Policy) WithDefaults() Policy {
	if p.Attempts <= 0 {
		p.Attempts = 8
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	return p
}

// Backoff returns the jittered delay before retry k (k ≥ 1 failures so
// far) of call number call: d = min(Max, Base·2^(k-1)), scaled into
// [d/2, d) by a uniform draw that is a pure function of (seed, call, k)
// — deterministic per client, decorrelated across clients.
func (p Policy) Backoff(seed, call uint64, k int) time.Duration {
	d := p.Max
	if k-1 < 32 {
		if exp := p.Base << (k - 1); exp > 0 && exp < p.Max {
			d = exp
		}
	}
	u := rng.New(seed ^ (call << 20) ^ uint64(k)).Float64()
	return d/2 + time.Duration(u*float64(d/2))
}

// Do runs try, call number call of a client seeded with seed, until it
// returns nil or an error transient rejects, ctx ends, or the policy's
// attempts are spent. transient also returns the least delay the peer
// asked for before the next attempt (0 = none). An exhausted budget
// returns the last error, prefixed with what.
func (p Policy) Do(ctx context.Context, what string, seed, call uint64, try func() error, transient func(error) (bool, time.Duration)) error {
	p = p.WithDefaults()
	var (
		err  error
		wait time.Duration
	)
	for k := 0; k < p.Attempts; k++ {
		if k > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(max(p.Backoff(seed, call, k), wait)):
			}
		}
		if err = try(); err == nil {
			return nil
		}
		var again bool
		if again, wait = transient(err); !again {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return fmt.Errorf("%s: retry budget exhausted after %d attempts: %w", what, p.Attempts, err)
}

// DecodeJSON unmarshals data into dst, a non-nil pointer, all or
// nothing: it decodes into a fresh value and copies that into dst only
// on success, so a truncated or hostile body can fail but never leave
// dst half-written.
func DecodeJSON(data []byte, dst any) error {
	fresh := reflect.New(reflect.TypeOf(dst).Elem())
	if err := json.Unmarshal(data, fresh.Interface()); err != nil {
		return err
	}
	reflect.ValueOf(dst).Elem().Set(fresh.Elem())
	return nil
}
