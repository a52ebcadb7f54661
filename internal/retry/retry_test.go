package retry

import "testing"

// TestBackoffDeterministicAndBounded: the jitter is a pure function of
// (seed, call, attempt), stays within [d/2, d) of the doubling-then-capped
// delay d, and decorrelates across seeds and calls.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{}.WithDefaults()
	for call := uint64(1); call <= 3; call++ {
		for k := 1; k < p.Attempts; k++ {
			d := p.Max
			if exp := p.Base << (k - 1); exp > 0 && exp < p.Max {
				d = exp
			}
			got := p.Backoff(7, call, k)
			if got < d/2 || got >= d {
				t.Fatalf("Backoff(7,%d,%d) = %v outside [%v, %v)", call, k, got, d/2, d)
			}
			if again := p.Backoff(7, call, k); again != got {
				t.Fatalf("Backoff(7,%d,%d) not deterministic: %v vs %v", call, k, got, again)
			}
		}
	}
	if p.Backoff(7, 1, 1) == p.Backoff(8, 1, 1) {
		t.Fatal("different seeds should decorrelate jitter")
	}
	if p.Backoff(7, 1, 1) == p.Backoff(7, 2, 1) {
		t.Fatal("different calls should decorrelate jitter")
	}
}
