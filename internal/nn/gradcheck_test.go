package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipemare/internal/tensor"
)

// projLoss is the scalar test loss L = Σ y ⊙ r for a fixed random r, whose
// gradient with respect to y is exactly r.
func projLoss(y, r *tensor.Tensor) float64 {
	s := 0.0
	for i := range y.Data {
		s += y.Data[i] * r.Data[i]
	}
	return s
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// fwd runs a layer forward on a throwaway tape (for loss probes whose
// activations are consumed immediately).
func fwd(l Layer, x *tensor.Tensor) *tensor.Tensor {
	return l.Forward(NewTape(), x)
}

// checkLayerGrad verifies a layer's input and parameter gradients against
// central finite differences of the projection loss.
func checkLayerGrad(t *testing.T, name string, l Layer, x *tensor.Tensor, rng *rand.Rand, tol float64) {
	t.Helper()
	y := fwd(l, x)
	r := randTensor(rng, y.Shape...)
	ZeroGrads(l.Params())
	tp := NewTape()
	l.Forward(tp, x)
	dx := l.Backward(tp, r).Clone() // clone: the tape arena owns the original
	if tp.Depth() != 0 {
		t.Fatalf("%s: tape depth %d after forward+backward, want 0", name, tp.Depth())
	}

	const eps = 1e-5
	// Input gradient.
	for i := 0; i < len(x.Data); i += 1 + len(x.Data)/50 { // sample ≤ ~50 coords
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := projLoss(fwd(l, x), r)
		x.Data[i] = orig - eps
		lm := projLoss(fwd(l, x), r)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if diff := math.Abs(num - dx.Data[i]); diff > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: input grad [%d] = %g, numeric %g", name, i, dx.Data[i], num)
		}
	}
	// Parameter gradients.
	for _, p := range l.Params() {
		for i := 0; i < len(p.Data.Data); i += 1 + len(p.Data.Data)/40 {
			orig := p.Data.Data[i]
			p.Data.Data[i] = orig + eps
			lp := projLoss(fwd(l, x), r)
			p.Data.Data[i] = orig - eps
			lm := projLoss(fwd(l, x), r)
			p.Data.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - p.Grad.Data[i]); diff > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %s grad [%d] = %g, numeric %g", name, p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestLinearGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 7, 5, true, rng)
	checkLayerGrad(t, "Linear", l, randTensor(rng, 4, 7), rng, 1e-6)
}

func TestLinearNoBiasGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("fc", 6, 3, false, rng)
	if len(l.Params()) != 1 {
		t.Fatalf("no-bias linear has %d params, want 1", len(l.Params()))
	}
	checkLayerGrad(t, "LinearNoBias", l, randTensor(rng, 3, 6), rng, 1e-6)
}

func TestConv2dGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2d("conv", 2, 3, 3, 1, 1, true, rng)
	checkLayerGrad(t, "Conv2d", c, randTensor(rng, 2, 2, 5, 5), rng, 1e-6)
}

func TestConv2dStridedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv2d("conv", 2, 4, 3, 2, 1, true, rng)
	checkLayerGrad(t, "Conv2dStrided", c, randTensor(rng, 1, 2, 6, 6), rng, 1e-6)
}

func TestReLUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkLayerGrad(t, "ReLU", NewReLU(), randTensor(rng, 4, 9), rng, 1e-6)
}

func TestGELUGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checkLayerGrad(t, "GELU", NewGELU(), randTensor(rng, 4, 9), rng, 1e-6)
}

func TestLayerNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkLayerGrad(t, "LayerNorm", NewLayerNorm("ln", 8), randTensor(rng, 5, 8), rng, 1e-5)
}

func TestGroupNormGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkLayerGrad(t, "GroupNorm", NewGroupNorm("gn", 4, 2), randTensor(rng, 2, 4, 3, 3), rng, 1e-5)
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
			in[i] = randTensor(rng, batch*seq, d)
			in[i].CastTo(dt)
		}
		tp := NewTape()
		tp.SetDType(dt)
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

func TestResidualGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inner := NewSequential(NewLinear("fc1", 6, 6, true, rng), NewReLU())
	checkLayerGrad(t, "Residual", NewResidual(inner), randTensor(rng, 3, 6), rng, 1e-6)
}

func TestSequentialGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewSequential(
		NewLinear("fc1", 5, 8, true, rng),
		NewReLU(),
		NewLayerNorm("ln", 8),
		NewLinear("fc2", 8, 4, true, rng),
	)
	checkLayerGrad(t, "Sequential", s, randTensor(rng, 3, 5), rng, 1e-5)
}

func TestSelfAttentionGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sa := NewSelfAttention("attn", 8, 2, 4, false, rng)
	checkLayerGrad(t, "SelfAttention", sa, randTensor(rng, 2*4, 8), rng, 1e-5)
}

func TestCausalSelfAttentionGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sa := NewSelfAttention("attn", 8, 2, 4, true, rng)
	checkLayerGrad(t, "CausalSelfAttention", sa, randTensor(rng, 2*4, 8), rng, 1e-5)
}

func TestCrossAttentionGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMultiHeadAttention("xattn", 8, 2, 3, 5, false, rng)
	xq := randTensor(rng, 2*3, 8)
	xkv := randTensor(rng, 2*5, 8)
	y := m.ForwardQKV(NewTape(), xq, xkv)
	r := randTensor(rng, y.Shape...)
	ZeroGrads(m.Params())
	tp := NewTape()
	m.ForwardQKV(tp, xq, xkv)
	dxqT, dxkvT := m.BackwardQKV(tp, r)
	dxq, dxkv := dxqT.Clone(), dxkvT.Clone()

	const eps = 1e-5
	check := func(x, dx *tensor.Tensor, label string) {
		for i := 0; i < len(x.Data); i += 3 {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := projLoss(m.ForwardQKV(NewTape(), xq, xkv), r)
			x.Data[i] = orig - eps
			lm := projLoss(m.ForwardQKV(NewTape(), xq, xkv), r)
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dx.Data[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("cross-attention %s grad [%d] = %g, numeric %g", label, i, dx.Data[i], num)
			}
		}
	}
	check(xq, dxq, "query")
	check(xkv, dxkv, "kv")
}

func TestEmbeddingGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	e := NewEmbedding("emb", 10, 6, rng)
	ids := tensor.FromSlice([]float64{1, 3, 3, 7}, 2, 2)
	y := fwd(e, ids)
	r := randTensor(rng, y.Shape...)
	ZeroGrads(e.Params())
	tp := NewTape()
	e.Forward(tp, ids)
	e.Backward(tp, r)
	const eps = 1e-5
	for i := 0; i < e.W.Size(); i += 2 {
		orig := e.W.Data.Data[i]
		e.W.Data.Data[i] = orig + eps
		lp := projLoss(fwd(e, ids), r)
		e.W.Data.Data[i] = orig - eps
		lm := projLoss(fwd(e, ids), r)
		e.W.Data.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-e.W.Grad.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("embedding grad [%d] = %g, numeric %g", i, e.W.Grad.Data[i], num)
		}
	}
	// Repeated token 3 must receive the sum of both row gradients.
}

func TestPositionalEncodingGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := NewPositionalEncoding("pos", 3, 4, rng)
	checkLayerGrad(t, "PositionalEncoding", p, randTensor(rng, 2*3, 4), rng, 1e-6)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	checkLayerGrad(t, "GlobalAvgPool", NewGlobalAvgPool(), randTensor(rng, 2, 3, 4, 4), rng, 1e-6)
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := NewFlatten()
	tp := NewTape()
	x := randTensor(rng, 2, 3, 2, 2)
	y := f.Forward(tp, x)
	if y.Shape[0] != 2 || y.Shape[1] != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dy := randTensor(rng, 2, 12)
	dx := f.Backward(tp, dy)
	if dx.Rank() != 4 || dx.Shape[1] != 3 {
		t.Fatalf("flatten backward shape %v", dx.Shape)
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	logits := randTensor(rng, 5, 4)
	labels := []int{0, 3, -1, 2, 1} // row 2 ignored
	ce := NewCrossEntropy()
	tp := NewTape()
	ce.Forward(tp, logits, labels)
	grad := ce.Backward(tp).Clone()
	const eps = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := ce.Forward(NewTape(), logits, labels)
		logits.Data[i] = orig - eps
		lm := ce.Forward(NewTape(), logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-6*(1+math.Abs(num)) {
			t.Fatalf("CE grad [%d] = %g, numeric %g", i, grad.Data[i], num)
		}
	}
	// Ignored row contributes zero gradient.
	for j := 0; j < 4; j++ {
		if grad.At(2, j) != 0 {
			t.Fatal("ignored row must have zero gradient")
		}
	}
}

func TestMSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pred := randTensor(rng, 3, 4)
	target := randTensor(rng, 3, 4)
	m := NewMSE()
	m.Forward(pred, target)
	grad := m.Backward()
	const eps = 1e-6
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp := m.Forward(pred, target)
		pred.Data[i] = orig - eps
		lm := m.Forward(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > 1e-8 {
			t.Fatalf("MSE grad [%d] = %g, numeric %g", i, grad.Data[i], num)
		}
	}
}

func TestDecoupledBackwardWeights(t *testing.T) {
	// The defining property of the library: with Bwd set, the input gradient
	// is dy @ W_bwd while the parameter gradient still uses the saved
	// forward input — the paper's ∇f_t(u_fwd, u_bkwd).
	rng := rand.New(rand.NewSource(20))
	l := NewLinear("fc", 3, 2, false, rng)
	x := randTensor(rng, 1, 3)
	dy := randTensor(rng, 1, 2)

	wb := randTensor(rng, 2, 3)
	l.W.Bwd = wb
	tp := NewTape()
	l.Forward(tp, x)
	ZeroGrads(l.Params())
	dx := l.Backward(tp, dy).Clone()

	// dx must equal dy @ Bwd.
	want := tensor.MatMul(dy, wb)
	for i := range want.Data {
		if math.Abs(dx.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("dx[%d] = %g, want %g (must use backward weights)", i, dx.Data[i], want.Data[i])
		}
	}
	// dW must equal dyᵀ @ x regardless of Bwd.
	wantW := tensor.MatMulT1(dy, x)
	for i := range wantW.Data {
		if math.Abs(l.W.Grad.Data[i]-wantW.Data[i]) > 1e-12 {
			t.Fatalf("dW[%d] = %g, want %g (must use saved forward input)", i, l.W.Grad.Data[i], wantW.Data[i])
		}
	}
	// Clearing Bwd restores synchronous behaviour.
	l.W.Bwd = nil
	tp2 := NewTape()
	l.Forward(tp2, x)
	dxSync := l.Backward(tp2, dy)
	wantSync := tensor.MatMul(dy, l.W.Data)
	for i := range wantSync.Data {
		if math.Abs(dxSync.Data[i]-wantSync.Data[i]) > 1e-12 {
			t.Fatal("with Bwd nil the backward pass must use forward weights")
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 2)
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
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
