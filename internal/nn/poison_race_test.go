//go:build race

package nn

import (
	"math"
	"math/rand"
	"strings"
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

// TestPanelGuardNamesAChangedSnapshot pins the race build's panel check:
// a Linear reusing the Wᵀ panel of an installed snapshot that was written
// after the pack panics, naming the weight, rather than multiplying by
// stale values.
func TestPanelGuardNamesAChangedSnapshot(t *testing.T) {
	l := NewLinear("guarded", 5, 3, false, rand.New(rand.NewSource(1)))
	snap := l.W.Data.Clone()
	l.W.Install(snap)
	x := tensor.New(2, 5)
	x.Fill(1)
	var tp Tape
	l.Forward(&tp, x) // packs
	l.Forward(&tp, x) // reuses, unchanged
	snap.SetFlat(4, 7)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "guarded.W") {
			t.Fatalf("reusing a changed snapshot's panel: recovered %q, want a panic naming guarded.W", msg)
		}
		l.W.Restore(tensor.New(3, 5))
	}()
	l.Forward(&tp, x)
}
