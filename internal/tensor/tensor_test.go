package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// filled returns a float64 tensor of the given shape holding vals.
func filled(vals []float64, shape ...int) *Tensor {
	t := New(shape...)
	if copy(t.data, vals) != len(t.data) {
		panic("filled: value count does not match shape")
	}
	return t
}

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("Size = %d, want 6", x.Size())
	}
	for i, v := range x.data {
		if v != 0 {
			t.Fatalf("Data[%d] = %g, want 0", i, v)
		}
	}
}

// TestByteViewIsTheStorage pins ByteView as a view: it spans every
// element at the dtype's width, in the host's byte order, and a write
// through it is a write to the tensor.
func TestByteViewIsTheStorage(t *testing.T) {
	a := filled([]float64{1.5, -2}, 2)
	v := ByteView(a)
	if len(v) != a.Bytes() || binary.NativeEndian.Uint64(v[8:]) != math.Float64bits(-2) {
		t.Fatalf("float64 view %x does not hold the elements", v)
	}
	binary.NativeEndian.PutUint64(v, math.Float64bits(3))
	if a.FlatAt(0) != 3 {
		t.Fatal("a write through the float64 view did not reach the tensor")
	}
	b := NewOf(Float32, 3)
	F32(b)[2] = 0.25
	w := ByteView(b)
	if len(w) != 12 || binary.NativeEndian.Uint32(w[8:]) != math.Float32bits(0.25) {
		t.Fatalf("float32 view %x does not hold the elements", w)
	}
	if len(ByteView(New(0))) != 0 {
		t.Fatal("an empty tensor's view is not empty")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := filled([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.data[0] = 42
	if x.data[0] != 42 {
		t.Fatal("Reshape must share underlying data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := filled([]float64{1, 2}, 2)
	y := x.Clone()
	y.data[0] = 5
	if x.data[0] != 1 {
		t.Fatal("Clone must not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := func() *Tensor { return filled([]float64{1, 2, 3}, 3) }
	b := filled([]float64{4, 5, 6}, 3)
	cases := []struct {
		name string
		op   func(x *Tensor)
		want []float64
	}{
		{"AddInto", func(x *Tensor) { AddInto(x, b) }, []float64{5, 7, 9}},
		{"ScaleInPlace", func(x *Tensor) { x.ScaleInPlace(2) }, []float64{2, 4, 6}},
		{"DivSumSq", func(x *Tensor) {
			if s := x.DivSumSq(2); s != 3.5 {
				t.Errorf("DivSumSq returned %g, want 3.5", s)
			}
		}, []float64{0.5, 1, 1.5}},
		{"Fill", func(x *Tensor) { x.Fill(7) }, []float64{7, 7, 7}},
		{"Zero", func(x *Tensor) { x.Zero() }, []float64{0, 0, 0}},
	}
	for _, c := range cases {
		got := a()
		c.op(got)
		for i := range c.want {
			if got.data[i] != c.want[i] {
				t.Errorf("%s[%d] = %g, want %g", c.name, i, got.data[i], c.want[i])
			}
		}
	}
}

func TestAxpy(t *testing.T) {
	a := filled([]float64{1, 2}, 2)
	b := filled([]float64{10, 20}, 2)
	Axpy(a, 0.5, b)
	if a.data[0] != 6 || a.data[1] != 12 {
		t.Fatalf("Axpy result %v, want [6 12]", a.data)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := filled([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := filled([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.data, want)
		}
	}
}

func TestMatMulTransposedVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 5)
	b := New(5, 3)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	want, got1, got2 := New(4, 3), New(4, 3), New(4, 3)
	MatMulInto(want, a, b)
	MatMulT1Into(got1, transposed(a), b)
	MatMulT2Into(got2, a, transposed(b))
	for i := range want.data {
		if !almostEq(want.data[i], got1.data[i], 1e-12) {
			t.Fatalf("MatMulT1 disagrees at %d: %g vs %g", i, got1.data[i], want.data[i])
		}
		if !almostEq(want.data[i], got2.data[i], 1e-12) {
			t.Fatalf("MatMulT2 disagrees at %d: %g vs %g", i, got2.data[i], want.data[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(3, 5)
		for i := range a.data {
			a.data[i] = rng.NormFloat64() * 10
		}
		s := NewLike(a)
		SoftmaxRowsInto(s, a)
		for i := 0; i < 3; i++ {
			sum := 0.0
			for j := 0; j < 5; j++ {
				v := s.data[i*5+j]
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if !almostEq(sum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	a := filled([]float64{1000, 1001, 999}, 1, 3)
	s := NewLike(a)
	SoftmaxRowsInto(s, a)
	for _, v := range s.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", s.data)
		}
	}
}

func TestLogSumExpRows(t *testing.T) {
	a := filled([]float64{0, math.Log(2), math.Log(3)}, 1, 3)
	out := make([]float64, 1)
	LogSumExpRowsInto(out, a)
	got := out[0]
	want := math.Log(6)
	if !almostEq(got, want, 1e-12) {
		t.Fatalf("LogSumExp = %g, want %g", got, want)
	}
}

func TestReductions(t *testing.T) {
	a := filled([]float64{3, -4}, 2)
	if a.SumSq() != 25 {
		t.Errorf("SumSq = %g", a.SumSq())
	}
}

func TestArgMaxRow(t *testing.T) {
	a := filled([]float64{1, 5, 2, 9, 0, 3}, 2, 3)
	if a.ArgMaxRow(0) != 1 {
		t.Errorf("row 0 argmax = %d", a.ArgMaxRow(0))
	}
	if a.ArgMaxRow(1) != 0 {
		t.Errorf("row 1 argmax = %d", a.ArgMaxRow(1))
	}
}

// naiveConv computes a reference 2-D convolution directly.
func naiveConv(x *Tensor, w *Tensor, stride, pad int) *Tensor {
	b, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oc, _, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(wd, kw, stride, pad)
	out := New(b, oc, oh, ow)
	for n := 0; n < b; n++ {
		for o := 0; o < oc; o++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy >= 0 && iy < h && ix >= 0 && ix < wd {
									s += x.data[((n*c+ch)*h+iy)*wd+ix] * w.data[((o*c+ch)*kh+ky)*kw+kx]
								}
							}
						}
					}
					out.data[((n*oc+o)*oh+oy)*ow+ox] = s
				}
			}
		}
	}
	return out
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ b, c, h, w, oc, k, stride, pad int }{
		{1, 1, 4, 4, 1, 3, 1, 1},
		{2, 3, 5, 5, 4, 3, 1, 1},
		{1, 2, 6, 6, 3, 3, 2, 1},
		{2, 2, 4, 4, 2, 1, 1, 0},
	} {
		x := New(cfg.b, cfg.c, cfg.h, cfg.w)
		w := New(cfg.oc, cfg.c, cfg.k, cfg.k)
		for i := range x.data {
			x.data[i] = rng.NormFloat64()
		}
		for i := range w.data {
			w.data[i] = rng.NormFloat64()
		}
		want := naiveConv(x, w, cfg.stride, cfg.pad)
		oh := ConvOutSize(cfg.h, cfg.k, cfg.stride, cfg.pad)
		ow := ConvOutSize(cfg.w, cfg.k, cfg.stride, cfg.pad)
		cols := New(cfg.b*oh*ow, cfg.c*cfg.k*cfg.k)
		Im2ColInto(cols, x, cfg.k, cfg.k, cfg.stride, cfg.pad)
		wm := w.Reshape(cfg.oc, cfg.c*cfg.k*cfg.k)
		// cols: (B*OH*OW, C*K*K); result rows are (b,oy,ox) and cols oc.
		res := New(cols.Shape[0], cfg.oc)
		MatMulT2Into(res, cols, wm)
		for n := 0; n < cfg.b; n++ {
			for o := 0; o < cfg.oc; o++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						row := (n*oh+oy)*ow + ox
						got, want := res.data[row*cfg.oc+o], want.data[((n*cfg.oc+o)*oh+oy)*ow+ox]
						if !almostEq(got, want, 1e-9) {
							t.Fatalf("cfg %+v mismatch at (%d,%d,%d,%d): %g vs %g", cfg, n, o, oy, ox, got, want)
						}
					}
				}
			}
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y: the defining property
	// of the adjoint, which is exactly what backprop needs.
	rng := rand.New(rand.NewSource(11))
	b, c, h, w, k, stride, pad := 2, 2, 5, 5, 3, 1, 1
	x := New(b, c, h, w)
	for i := range x.data {
		x.data[i] = rng.NormFloat64()
	}
	oh, ow := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	cols := New(b*oh*ow, c*k*k)
	Im2ColInto(cols, x, k, k, stride, pad)
	y := New(cols.Shape...)
	for i := range y.data {
		y.data[i] = rng.NormFloat64()
	}
	lhs := 0.0
	for i := range cols.data {
		lhs += cols.data[i] * y.data[i]
	}
	back := New(b, c, h, w)
	Col2ImInto(back, y, k, k, stride, pad)
	rhs := 0.0
	for i := range x.data {
		rhs += x.data[i] * back.data[i]
	}
	if !almostEq(lhs, rhs, 1e-9) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(8, 3, 1, 1); got != 8 {
		t.Errorf("same-pad conv out = %d, want 8", got)
	}
	if got := ConvOutSize(8, 3, 2, 1); got != 4 {
		t.Errorf("strided conv out = %d, want 4", got)
	}
}
