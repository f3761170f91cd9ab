//go:build !amd64

package tensor

// run calls f: the only level such a host has is the one it runs.
func (l kernelLevel) run(f func()) { f() }
