//go:build race

package nn

import (
	"math"
	"testing"

	"pipemare/internal/tensor"
)

// TestTapePoisonsUnderRace pins the race build's poison: every tensor
// Tape.NewTensor hands out, fresh or recycled, holds only NaN, in both
// dtypes — so a layer that reads a tape tensor before writing it breaks
// every curve the race suite checks.
func TestTapePoisonsUnderRace(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		var tp Tape
		tp.SetDType(dt)
		var first *tensor.Tensor
		for _, pass := range []string{"fresh", "recycled"} {
			x := tp.NewTensor(3, 5)
			if pass == "fresh" {
				first = x
			} else if x != first {
				t.Fatalf("%s: the tape did not recycle its buffer", dt)
			}
			for i := 0; i < x.Size(); i++ {
				if !math.IsNaN(x.FlatAt(i)) {
					t.Fatalf("%s %s tensor: element %d = %v, want NaN", dt, pass, i, x.FlatAt(i))
				}
			}
			x.Fill(1)
			tp.Reset()
		}
	}
}
