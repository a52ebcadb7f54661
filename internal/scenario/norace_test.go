//go:build !race

package scenario

// raceEnabled reports whether the tests run under the race detector,
// which slows single-goroutine generator loops about tenfold.
const raceEnabled = false
