//go:build race

package nn

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so the matmul's pooled B panel (attention's q·kᵀ takes
// one) allocates and allocation bounds on a layer pass cannot hold.
const raceEnabled = true
