//go:build race

package serve

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a quarter of its Puts at random.
const raceEnabled = true
