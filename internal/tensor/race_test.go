//go:build race

package tensor

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so the pack-scratch pool allocates and zero-allocation
// assertions on the blocked path cannot hold.
const raceEnabled = true
