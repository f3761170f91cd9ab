//go:build amd64

package tensor

import "testing"

// TestGenericKernelMatchesNaive runs the grid with the assembly switched
// off, so the strided Go twin of the microkernel — what every non-AVX and
// non-amd64 host executes — is held to the same oracle, bit for bit, as the
// assembly is in TestBlockedMatchesNaive on the same inputs.
func TestGenericKernelMatchesNaive(t *testing.T) {
	if !haveSIMD {
		t.Skip("no AVX: TestBlockedMatchesNaive already ran the generic kernel")
	}
	haveSIMD = false
	t.Cleanup(func() { haveSIMD = true })
	checkGridAgainstNaive(t)
}
