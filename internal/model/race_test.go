//go:build race

package model

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so the matmul's pooled scratch allocates and an
// allocation count cannot hold.
const raceEnabled = true
