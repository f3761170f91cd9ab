package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipemare/internal/tensor"
)

// projLoss is the scalar test loss L = Σ y ⊙ r for a fixed random r, whose
// gradient with respect to y is exactly r. The sum runs in float64 over
// the stored (per-dtype rounded) elements.
func projLoss(y, r *tensor.Tensor) float64 {
	s := 0.0
	for i, n := 0, y.Size(); i < n; i++ {
		s += y.FlatAt(i) * r.FlatAt(i)
	}
	return s
}

// randTensor draws a float64 tensor and casts it to dt, so both dtypes see
// the same draw sequence.
func randTensor(rng *rand.Rand, dt tensor.DType, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i, n := 0, t.Size(); i < n; i++ {
		t.SetFlat(i, rng.NormFloat64())
	}
	t.CastTo(dt)
	return t
}

// newTape returns an empty tape whose arena hands out dt tensors.
func newTape(dt tensor.DType) *Tape {
	tp := &Tape{}
	tp.SetDType(dt)
	return tp
}

// gradTol is the finite-difference step and the relative tolerance of a
// gradient check in one dtype. Float32 outputs carry ~1e-7 of rounding
// each, so the step is wide enough for the difference quotient to rise
// above it and the tolerance covers what is left; float64 checks take
// their tolerance per op.
type gradTol struct {
	dt       tensor.DType
	eps, tol float64
}

func gradTols(tol64 float64) []gradTol {
	return []gradTol{{tensor.Float64, 1e-5, tol64}, {tensor.Float32, 1.0 / 1024, 1e-2}}
}

// checkGrad compares the analytic gradient g of a scalar loss with respect
// to x against central differences of loss(), perturbing every stride-th
// coordinate of x in place. The quotient divides by the step x actually
// took, which in float32 is not exactly 2·eps.
func checkGrad(t *testing.T, label string, x, g *tensor.Tensor, stride int, gt gradTol, loss func() float64) {
	t.Helper()
	for i := 0; i < x.Size(); i += stride {
		orig := x.FlatAt(i)
		x.SetFlat(i, orig+gt.eps)
		hi, lp := x.FlatAt(i), loss()
		x.SetFlat(i, orig-gt.eps)
		lo, lm := x.FlatAt(i), loss()
		x.SetFlat(i, orig)
		num := (lp - lm) / (hi - lo)
		if got := g.FlatAt(i); math.Abs(num-got) > gt.tol*(1+math.Abs(num)) {
			t.Fatalf("%s grad [%d] = %g, numeric %g", label, i, got, num)
		}
	}
}

// checkLayerGrad verifies a layer's input and parameter gradients against
// central finite differences of the projection loss, in both dtypes. mk
// builds the layer and its input in float64 from a seeded rng; the float32
// run casts both, so it checks the rounded image of the same problem.
// inputGrad is false for layers whose input is not differentiable.
func checkLayerGrad(t *testing.T, seed int64, tol64 float64, inputGrad bool, mk func(rng *rand.Rand) (Layer, *tensor.Tensor)) {
	t.Helper()
	for _, gt := range gradTols(tol64) {
		t.Run(gt.dt.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l, x := mk(rng)
			x.CastTo(gt.dt)
			for _, p := range l.Params() {
				p.CastTo(gt.dt)
			}
			tp := newTape(gt.dt)
			r := randTensor(rng, gt.dt, l.Forward(tp, x).Shape...)
			tp.Reset()
			l.Forward(tp, x)
			dx := l.Backward(tp, r).Clone() // clone: the tape arena owns the original
			if len(tp.stack) != 0 {
				t.Fatalf("%d records left on the tape after forward+backward", len(tp.stack))
			}
			loss := func() float64 { return projLoss(l.Forward(newTape(gt.dt), x), r) }
			if inputGrad {
				checkGrad(t, "input", x, dx, 1+x.Size()/50, gt, loss) // sample ≤ ~50 coords
			}
			for _, p := range l.Params() {
				checkGrad(t, "param "+p.Name, p.Data, p.Grad, 1+p.Size()/40, gt, loss)
			}
		})
	}
}

func TestLinearGradient(t *testing.T) {
	checkLayerGrad(t, 1, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewLinear("fc", 7, 5, true, rng), randTensor(rng, tensor.Float64, 4, 7)
	})
}

func TestLinearNoBiasGradient(t *testing.T) {
	checkLayerGrad(t, 2, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		l := NewLinear("fc", 6, 3, false, rng)
		if len(l.Params()) != 1 {
			t.Fatalf("no-bias linear has %d params, want 1", len(l.Params()))
		}
		return l, randTensor(rng, tensor.Float64, 3, 6)
	})
}

func TestConv2dGradient(t *testing.T) {
	checkLayerGrad(t, 3, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewConv2d("conv", 2, 3, 3, 1, 1, true, rng), randTensor(rng, tensor.Float64, 2, 2, 5, 5)
	})
}

func TestConv2dStridedGradient(t *testing.T) {
	checkLayerGrad(t, 4, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewConv2d("conv", 2, 4, 3, 2, 1, true, rng), randTensor(rng, tensor.Float64, 1, 2, 6, 6)
	})
}

func TestReLUGradient(t *testing.T) {
	checkLayerGrad(t, 5, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewReLU(), randTensor(rng, tensor.Float64, 4, 9)
	})
}

func TestGELUGradient(t *testing.T) {
	checkLayerGrad(t, 6, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewGELU(), randTensor(rng, tensor.Float64, 4, 9)
	})
}

func TestLayerNormGradient(t *testing.T) {
	checkLayerGrad(t, 7, 1e-5, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewLayerNorm("ln", 8), randTensor(rng, tensor.Float64, 5, 8)
	})
}

func TestGroupNormGradient(t *testing.T) {
	checkLayerGrad(t, 8, 1e-5, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewGroupNorm("gn", 4, 2), randTensor(rng, tensor.Float64, 2, 4, 3, 3)
	})
}

// TestLayerKernelsAreLeafCalls is the nn half of the tensor package's
// TestKernelsAreLeafCalls: on a warm tape the arena serves every buffer,
// and the normalisation and attention loops run on the calling goroutine
// with one scratch set, so a forward+backward allocates only the tape's
// own bookkeeping — the boxed record each Forward pushes, and the view
// header (tensor + shape) RowView builds per (batch, head) pair per pass.
// A row split under these layers shows up as its escaping closures and
// per-chunk scratch lists.
func TestLayerKernelsAreLeafCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const batch, heads, seq, d = 4, 2, 12, 32
	rng := rand.New(rand.NewSource(27))
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		in := make([]*tensor.Tensor, 4)
		for i := range in {
			in[i] = randTensor(rng, dt, batch*seq, d)
		}
		tp := newTape(dt)
		ln := NewLayerNorm("ln", d)
		ln.Gain.CastTo(dt)
		ln.Bias.CastTo(dt)
		attn := NewAttnCore(d, heads, seq, seq, true)
		for _, c := range []struct {
			name string
			want float64
			run  func()
		}{
			{"LayerNorm", 1, func() { ln.Forward(tp, in[0]); ln.Backward(tp, in[1]) }},
			{"AttnCore", 1 + 2*2*batch*heads, func() { attn.Forward(tp, in[0], in[1], in[2]); attn.Backward(tp, in[3]) }},
		} {
			pass := func() { tp.Reset(); c.run() }
			pass() // warm the arena
			if allocs := testing.AllocsPerRun(20, pass); allocs > c.want {
				t.Errorf("%s %s forward+backward allocated %.1f times on a warm tape, want at most %.0f", dt, c.name, allocs, c.want)
			}
		}
	}
}

// checkAttnCoreGrad verifies the weightless attention core — what the
// models' q/k/v/o projections are compiled around — against central
// differences with respect to each of its three inputs, in both dtypes.
func checkAttnCoreGrad(t *testing.T, seed int64, qLen, kLen int, causal bool) {
	t.Helper()
	const batch, d, heads = 2, 8, 2
	for _, gt := range gradTols(1e-5) {
		t.Run(gt.dt.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			core := NewAttnCore(d, heads, qLen, kLen, causal)
			q := randTensor(rng, gt.dt, batch*qLen, d)
			k := randTensor(rng, gt.dt, batch*kLen, d)
			v := randTensor(rng, gt.dt, batch*kLen, d)
			r := randTensor(rng, gt.dt, batch*qLen, d)
			tp := newTape(gt.dt)
			core.Forward(tp, q, k, v)
			dq, dk, dv := core.Backward(tp, r)
			if len(tp.stack) != 0 {
				t.Fatalf("%d records left on the tape after forward+backward", len(tp.stack))
			}
			loss := func() float64 { return projLoss(core.Forward(newTape(gt.dt), q, k, v), r) }
			checkGrad(t, "query", q, dq, 3, gt, loss)
			checkGrad(t, "key", k, dk, 3, gt, loss)
			checkGrad(t, "value", v, dv, 3, gt, loss)
		})
	}
}

func TestSelfAttentionGradient(t *testing.T)       { checkAttnCoreGrad(t, 11, 4, 4, false) }
func TestCausalSelfAttentionGradient(t *testing.T) { checkAttnCoreGrad(t, 12, 4, 4, true) }
func TestCrossAttentionGradient(t *testing.T)      { checkAttnCoreGrad(t, 13, 3, 5, false) }

// TestEmbeddingGradient checks the table gradient only — token ids are not
// differentiable — with token 3 repeated, so its row must receive the sum
// of both occurrences' gradients.
func TestEmbeddingGradient(t *testing.T) {
	checkLayerGrad(t, 14, 1e-6, false, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		ids := tensor.New(2, 2)
		for i, id := range []float64{1, 3, 3, 7} {
			ids.SetFlat(i, id)
		}
		return NewEmbedding("emb", 10, 6, rng), ids
	})
}

func TestPositionalEncodingGradient(t *testing.T) {
	checkLayerGrad(t, 15, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewPositionalEncoding("pos", 3, 4, rng), randTensor(rng, tensor.Float64, 2*3, 4)
	})
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	checkLayerGrad(t, 16, 1e-6, true, func(rng *rand.Rand) (Layer, *tensor.Tensor) {
		return NewGlobalAvgPool(), randTensor(rng, tensor.Float64, 2, 3, 4, 4)
	})
}

func TestCrossEntropyGradient(t *testing.T) {
	labels := []int{0, 3, -1, 2, 1} // row 2 ignored
	for _, gt := range gradTols(1e-6) {
		t.Run(gt.dt.String(), func(t *testing.T) {
			logits := randTensor(rand.New(rand.NewSource(18)), gt.dt, 5, 4)
			ce := NewCrossEntropy()
			tp := newTape(gt.dt)
			ce.Forward(tp, logits, labels)
			grad := ce.Backward(tp)
			checkGrad(t, "logits", logits, grad, 1, gt, func() float64 {
				return ce.Forward(newTape(gt.dt), logits, labels)
			})
			// Ignored row contributes zero gradient.
			for j := 0; j < 4; j++ {
				if grad.FlatAt(2*4+j) != 0 {
					t.Fatal("ignored row must have zero gradient")
				}
			}
		})
	}
}

func TestDecoupledBackwardWeights(t *testing.T) {
	// The defining property of the library: with Bwd set, the input gradient
	// is dy @ W_bwd while the parameter gradient still uses the saved
	// forward input — the paper's ∇f_t(u_fwd, u_bkwd).
	rng := rand.New(rand.NewSource(20))
	l := NewLinear("fc", 3, 2, false, rng)
	x := randTensor(rng, tensor.Float64, 1, 3)
	dy := randTensor(rng, tensor.Float64, 1, 2)
	near := func(what string, got, want *tensor.Tensor) {
		t.Helper()
		for i := 0; i < want.Size(); i++ {
			if math.Abs(got.FlatAt(i)-want.FlatAt(i)) > 1e-12 {
				t.Fatalf("%s[%d] = %g, want %g", what, i, got.FlatAt(i), want.FlatAt(i))
			}
		}
	}

	wb := randTensor(rng, tensor.Float64, 2, 3)
	l.W.Bwd = wb
	tp := &Tape{}
	l.Forward(tp, x)
	ZeroGrads(l.Params())
	dx := l.Backward(tp, dy).Clone()

	// dx must equal dy @ Bwd.
	want := tensor.New(1, 3)
	tensor.MatMulInto(want, dy, wb)
	near("dx (must use backward weights)", dx, want)
	// dW must equal dyᵀ @ x regardless of Bwd.
	wantW := tensor.New(2, 3)
	tensor.MatMulT1Into(wantW, dy, x)
	near("dW (must use saved forward input)", l.W.Grad, wantW)
	// Clearing Bwd restores synchronous behaviour.
	l.W.Bwd = nil
	tp.Reset()
	l.Forward(tp, x)
	dxSync := l.Backward(tp, dy)
	wantSync := tensor.New(1, 3)
	tensor.MatMulInto(wantSync, dy, l.W.Data)
	near("dx with Bwd nil (must use forward weights)", dxSync, wantSync)
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad.SetFlat(0, 3)
	p.Grad.SetFlat(1, 4) // norm 5
	pre := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g, want 5", pre)
	}
	if post := GradNorm([]*Param{p}); math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %g, want 1", post)
	}
	// No-op below the threshold.
	ClipGradNorm([]*Param{p}, 10)
	if post := GradNorm([]*Param{p}); math.Abs(post-1) > 1e-12 {
		t.Fatal("clip below threshold must not rescale")
	}
}

func TestParamHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := NewParam("a", 2, 3)
	b := NewParam("b", 4)
	a.InitXavier(rng, 3, 2)
	b.InitNormal(rng, 0.1)
	if TotalSize([]*Param{a, b}) != 10 {
		t.Fatalf("TotalSize = %d, want 10", TotalSize([]*Param{a, b}))
	}
	if ParamNorm([]*Param{a, b}) <= 0 {
		t.Fatal("ParamNorm should be positive after init")
	}
	a.Grad.Fill(2)
	ZeroGrads([]*Param{a, b})
	if GradNorm([]*Param{a, b}) != 0 {
		t.Fatal("ZeroGrads must clear gradients")
	}
}
