// Package tensor implements dense row-major tensors of float64 or
// float32 elements and the numerical kernels (matmul, convolution via
// im2col, reductions, softmax) used by the neural-network substrate.
// Float64 is the zero-value default; NewOf/NewLike build float32
// tensors, and every kernel dispatches on the dtype to a generic
// implementation, so the two precisions share one deterministic code
// path. The package is deliberately small: the PipeMare reproduction
// needs correctness and determinism first — but the matmul family is a
// real cache-blocked, register-tiled implementation (see matmul.go),
// because per-core kernel speed is what the pipeline's speedups are
// measured against.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major tensor. Exactly one backing slice is
// non-nil: data for Float64 tensors (the zero-value default), data32 for
// Float32 ones; code outside the package reaches the storage through the
// dtype-checked F64 and F32. The zero value is an empty float64 tensor;
// use New, NewOf or NewLike.
type Tensor struct {
	Shape  []int
	data   []float64
	data32 []float32
	dt     DType
}

// New returns a zero-filled float64 tensor with the given shape.
// It panics if any dimension is negative (a programmer error).
func New(shape ...int) *Tensor { return NewOf(Float64, shape...) }

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	if t.dt == Float32 {
		return len(t.data32)
	}
	return len(t.data)
}

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t (same dtype).
func (t *Tensor) Clone() *Tensor {
	c := NewLike(t)
	copy(c.data, t.data)
	copy(c.data32, t.data32)
	return c
}

// CopyFrom copies src's data into t. Sizes and dtypes must match; use
// CopyRange for converting copies.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() || t.dt != src.dt {
		panic(fmt.Sprintf("tensor: CopyFrom mismatch %v %s vs %v %s", t.Shape, t.dt, src.Shape, src.dt))
	}
	copy(t.data, src.data)
	copy(t.data32, src.data32)
}

// Reshape returns a view of t with a new shape of the same total size.
// The data is shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v", t.Shape, t.Size(), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), data: t.data, data32: t.data32, dt: t.dt}
}

// Resize re-views t's storage at a new shape of the same dtype, in place,
// when its backing slice and shape slice have the capacity: it reports
// whether it did, and leaves t unchanged when it did not. The elements it
// keeps are unspecified. Only an owner that hands t out afresh may call
// it (an arena recycling a buffer): every earlier holder sees the new
// shape.
func (t *Tensor) Resize(shape ...int) bool {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n < 0 || cap(t.Shape) < len(shape) {
		return false
	}
	if t.dt == Float32 {
		if cap(t.data32) < n {
			return false
		}
		t.data32 = t.data32[:n]
	} else {
		if cap(t.data) < n {
			return false
		}
		t.data = t.data[:n]
	}
	t.Shape = append(t.Shape[:0], shape...)
	return true
}

// Zero sets all elements of t to zero.
func (t *Tensor) Zero() {
	if t.dt == Float32 {
		zero(t.data32)
	} else {
		zero(t.data)
	}
}

func zero[T Elem](d []T) {
	for i := range d {
		d[i] = 0
	}
}

// Fill sets all elements of t to v (rounded for float32 tensors).
func (t *Tensor) Fill(v float64) {
	if t.dt == Float32 {
		fill(t.data32, float32(v))
	} else {
		fill(t.data, v)
	}
}

func fill[T Elem](d []T, v T) {
	for i := range d {
		d[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, useful in test failures.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if t.dt == Float32 {
		b.WriteString("f32")
	}
	if n := t.Size(); n <= 8 {
		b.WriteByte('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", t.FlatAt(i))
		}
		b.WriteByte(']')
	} else {
		fmt.Fprintf(&b, "[%g %g ... %g]", t.FlatAt(0), t.FlatAt(1), t.FlatAt(n-1))
	}
	return b.String()
}

// --- elementwise ---

// AddInto accumulates src into dst (dst += src).
func AddInto(dst, src *Tensor) {
	checkSame(dst, src, "AddInto")
	if dst.dt == Float32 {
		addInto(dst.data32, src.data32)
	} else {
		addInto(dst.data, src.data)
	}
}

func addInto[T Elem](dst, src []T) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Axpy computes dst += alpha*src, with alpha rounded to the dtype first.
func Axpy(dst *Tensor, alpha float64, src *Tensor) {
	checkSame(dst, src, "Axpy")
	if dst.dt == Float32 {
		axpy(dst.data32, float32(alpha), src.data32)
	} else {
		axpy(dst.data, alpha, src.data)
	}
}

func axpy[T Elem](dst []T, alpha T, src []T) {
	for i := range dst {
		dst[i] += T(alpha * src[i])
	}
}

// ScaleInPlace multiplies every element of t by s (rounded to the dtype
// first).
func (t *Tensor) ScaleInPlace(s float64) {
	if t.dt == Float32 {
		scaleInPlace(t.data32, float32(s))
	} else {
		scaleInPlace(t.data, s)
	}
}

func scaleInPlace[T Elem](d []T, s T) {
	for i := range d {
		d[i] = s * d[i]
	}
}

func checkSame(a, b *Tensor, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
	if a.dt != b.dt {
		panic(fmt.Sprintf("tensor: %s dtype mismatch %s vs %s", op, a.dt, b.dt))
	}
}

// --- reductions ---
// Reductions accumulate in float64 for both dtypes: they feed metrics and
// clipping scalars, which stay float64 end to end (and are deterministic
// because every engine runs this same serial-order code).

// SumSq returns the sum of squared elements, accumulated in float64.
func (t *Tensor) SumSq() float64 {
	if t.dt == Float32 {
		return sumSq(t.data32)
	}
	return sumSq(t.data)
}

func sumSq[T Elem](d []T) float64 {
	s := 0.0
	for _, v := range d {
		s += float64(float64(v) * float64(v))
	}
	return s
}

// ArgMaxRow returns the index of the largest element of row r of a 2-D tensor.
func (t *Tensor) ArgMaxRow(r int) int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRow requires a rank-2 tensor")
	}
	if t.dt == Float32 {
		return argMaxRow(t.data32, r, t.Shape[1])
	}
	return argMaxRow(t.data, r, t.Shape[1])
}

func argMaxRow[T Elem](d []T, r, cols int) int {
	base := r * cols
	best, bi := d[base], 0
	for j := 1; j < cols; j++ {
		if v := d[base+j]; v > best {
			best, bi = v, j
		}
	}
	return bi
}

// --- softmax family ---

// SoftmaxRowsInto computes the row-wise softmax of a into dst (same
// shape and dtype). Exponentials are the package's own (expNonPos, the
// same on every host), evaluated in float64 for both dtypes, and the row
// sum accumulates in float64; float32 rounds at each store — fixed
// arithmetic per element, hence deterministic per dtype.
func SoftmaxRowsInto(dst, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: SoftmaxRows requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: SoftmaxRows destination %v, want (%d,%d)", dst.Shape, m, n))
	}
	checkSame(dst, a, "SoftmaxRowsInto")
	if a.dt == Float32 {
		softmaxRows(dst.data32, a.data32, m, n)
	} else {
		softmaxRows(dst.data, a.data, m, n)
	}
}

func softmaxRows[T Elem](out, in []T, m, n int) {
	for i := 0; i < m; i++ {
		row := in[i*n : (i+1)*n]
		orow := out[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			e := expDiff(v, mx)
			orow[j] = T(e)
			s += e
		}
		inv := 1 / s
		for j := range orow {
			orow[j] = T(float64(orow[j]) * inv)
		}
	}
}

// LogSumExpRowsInto writes the log-sum-exp of each row of the 2-D a into
// out (one float64 per row). The exponentials are expNonPos, as in the
// softmax; the final logarithm is math.Log, whose result feeds only the
// loss value (reported, and compared against the divergence cap), never a
// gradient.
func LogSumExpRowsInto(out []float64, a *Tensor) {
	if a.Rank() != 2 {
		panic("tensor: LogSumExpRowsInto requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	if len(out) != m {
		panic(fmt.Sprintf("tensor: LogSumExpRowsInto of %v into %d rows", a.Shape, len(out)))
	}
	if a.dt == Float32 {
		logSumExpRows(out, a.data32, m, n)
	} else {
		logSumExpRows(out, a.data, m, n)
	}
}

func logSumExpRows[T Elem](out []float64, in []T, m, n int) {
	for i := 0; i < m; i++ {
		row := in[i*n : (i+1)*n]
		mx := row[0]
		for _, v := range row[1:] {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for _, v := range row {
			s += expDiff(v, mx)
		}
		out[i] = float64(mx) + math.Log(s)
	}
}
