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
// non-nil: Data for Float64 tensors (the zero-value default, so legacy
// code reading .Data directly keeps working), Data32 for Float32 ones.
// The zero value is an empty float64 tensor; use New, NewOf or the
// factory helpers.
type Tensor struct {
	Shape  []int
	Data   []float64
	Data32 []float32
	dt     DType
}

// New returns a zero-filled float64 tensor with the given shape.
// It panics if any dimension is negative (a programmer error).
func New(shape ...int) *Tensor { return NewOf(Float64, shape...) }

// FromSlice wraps data in a float64 tensor of the given shape. The slice
// is used directly (not copied). It panics if len(data) does not match
// the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (=%d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Full returns a float64 tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	if t.dt == Float32 {
		return len(t.Data32)
	}
	return len(t.Data)
}

// Dim returns the length of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t (same dtype).
func (t *Tensor) Clone() *Tensor {
	c := NewLike(t)
	copy(c.Data, t.Data)
	copy(c.Data32, t.Data32)
	return c
}

// CopyFrom copies src's data into t. Sizes and dtypes must match; use
// CopyRange for converting copies.
func (t *Tensor) CopyFrom(src *Tensor) {
	if t.Size() != src.Size() || t.dt != src.dt {
		panic(fmt.Sprintf("tensor: CopyFrom mismatch %v %s vs %v %s", t.Shape, t.dt, src.Shape, src.dt))
	}
	copy(t.Data, src.Data)
	copy(t.Data32, src.Data32)
}

// RowView returns a (rows, cols) view of row r of a rank-2 tensor whose
// rows hold rows*cols elements. The data is shared with t.
func (t *Tensor) RowView(r, rows, cols int) *Tensor {
	n := rows * cols
	if t.Rank() != 2 || t.Shape[1] != n {
		panic(fmt.Sprintf("tensor: RowView(%d,%d) of %v", rows, cols, t.Shape))
	}
	v := &Tensor{Shape: []int{rows, cols}, dt: t.dt}
	if t.dt == Float32 {
		v.Data32 = t.Data32[r*n : (r+1)*n]
	} else {
		v.Data = t.Data[r*n : (r+1)*n]
	}
	return v
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
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data, Data32: t.Data32, dt: t.dt}
}

// At returns the element at the given multi-index as a float64.
func (t *Tensor) At(idx ...int) float64 {
	return t.FlatAt(t.offset(idx))
}

// Set assigns v to the element at the given multi-index (rounded for
// float32 tensors).
func (t *Tensor) Set(v float64, idx ...int) {
	t.SetFlat(t.offset(idx), v)
}

// At2 is the non-variadic rank-2 fast path of At: no index slice, no
// allocation. Bounds beyond the row/column check are left to the slice
// index.
func (t *Tensor) At2(i, j int) float64 {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: At2 on rank-%d tensor", len(t.Shape)))
	}
	cols := t.Shape[1]
	if i < 0 || i >= t.Shape[0] || j < 0 || j >= cols {
		panic(fmt.Sprintf("tensor: At2(%d,%d) out of range for shape %v", i, j, t.Shape))
	}
	return t.FlatAt(i*cols + j)
}

// Set2 is the non-variadic rank-2 fast path of Set.
func (t *Tensor) Set2(v float64, i, j int) {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Set2 on rank-%d tensor", len(t.Shape)))
	}
	cols := t.Shape[1]
	if i < 0 || i >= t.Shape[0] || j < 0 || j >= cols {
		panic(fmt.Sprintf("tensor: Set2(%d,%d) out of range for shape %v", i, j, t.Shape))
	}
	t.SetFlat(i*cols+j, v)
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank of shape %v", idx, t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Zero sets all elements of t to zero.
func (t *Tensor) Zero() {
	if t.dt == Float32 {
		zero(t.Data32)
	} else {
		zero(t.Data)
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
		fill(t.Data32, float32(v))
	} else {
		fill(t.Data, v)
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

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame(a, b, "Add")
	out := NewLike(a)
	if a.dt == Float32 {
		addOut(out.Data32, a.Data32, b.Data32)
	} else {
		addOut(out.Data, a.Data, b.Data)
	}
	return out
}

func addOut[T Elem](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame(a, b, "Sub")
	out := NewLike(a)
	if a.dt == Float32 {
		subOut(out.Data32, a.Data32, b.Data32)
	} else {
		subOut(out.Data, a.Data, b.Data)
	}
	return out
}

func subOut[T Elem](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame(a, b, "Mul")
	out := NewLike(a)
	if a.dt == Float32 {
		mulOut(out.Data32, a.Data32, b.Data32)
	} else {
		mulOut(out.Data, a.Data, b.Data)
	}
	return out
}

func mulOut[T Elem](dst, a, b []T) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Scale returns s * a, with s rounded to a's dtype first.
func Scale(a *Tensor, s float64) *Tensor {
	out := NewLike(a)
	if a.dt == Float32 {
		scaleOut(out.Data32, a.Data32, float32(s))
	} else {
		scaleOut(out.Data, a.Data, s)
	}
	return out
}

func scaleOut[T Elem](dst, a []T, s T) {
	for i := range dst {
		dst[i] = s * a[i]
	}
}

// AddInto accumulates src into dst (dst += src).
func AddInto(dst, src *Tensor) {
	checkSame(dst, src, "AddInto")
	if dst.dt == Float32 {
		addInto(dst.Data32, src.Data32)
	} else {
		addInto(dst.Data, src.Data)
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
		axpy(dst.Data32, float32(alpha), src.Data32)
	} else {
		axpy(dst.Data, alpha, src.Data)
	}
}

func axpy[T Elem](dst []T, alpha T, src []T) {
	for i := range dst {
		dst[i] += alpha * src[i]
	}
}

// ScaleInPlace multiplies every element of t by s (rounded to the dtype
// first).
func (t *Tensor) ScaleInPlace(s float64) {
	if t.dt == Float32 {
		scaleOut(t.Data32, t.Data32, float32(s))
	} else {
		scaleOut(t.Data, t.Data, s)
	}
}

// DivScalar divides every element of t by s, preserving the dtype's
// native division rounding (x/s, not x*(1/s)).
func (t *Tensor) DivScalar(s float64) {
	if t.dt == Float32 {
		divScalar(t.Data32, float32(s))
	} else {
		divScalar(t.Data, s)
	}
}

func divScalar[T Elem](d []T, s T) {
	for i := range d {
		d[i] /= s
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

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	if t.dt == Float32 {
		return sum(t.Data32)
	}
	return sum(t.Data)
}

func sum[T Elem](d []T) float64 {
	s := 0.0
	for _, v := range d {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if t.Size() == 0 {
		return 0
	}
	return t.Sum() / float64(t.Size())
}

// Norm returns the Euclidean (L2) norm of all elements.
func (t *Tensor) Norm() float64 {
	if t.dt == Float32 {
		return norm(t.Data32)
	}
	return norm(t.Data)
}

func norm[T Elem](d []T) float64 {
	s := 0.0
	for _, v := range d {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// SumSq returns the sum of squared elements, accumulated in float64.
func (t *Tensor) SumSq() float64 {
	if t.dt == Float32 {
		return sumSq(t.Data32)
	}
	return sumSq(t.Data)
}

func sumSq[T Elem](d []T) float64 {
	s := 0.0
	for _, v := range d {
		s += float64(v) * float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	if t.dt == Float32 {
		return maxAbs(t.Data32)
	}
	return maxAbs(t.Data)
}

func maxAbs[T Elem](d []T) float64 {
	m := 0.0
	for _, v := range d {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// ArgMaxRow returns the index of the largest element of row r of a 2-D tensor.
func (t *Tensor) ArgMaxRow(r int) int {
	if t.Rank() != 2 {
		panic("tensor: ArgMaxRow requires a rank-2 tensor")
	}
	if t.dt == Float32 {
		return argMaxRow(t.Data32, r, t.Shape[1])
	}
	return argMaxRow(t.Data, r, t.Shape[1])
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

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := NewOf(a.dt, n, m)
	if a.dt == Float32 {
		transpose(out.Data32, a.Data32, m, n)
	} else {
		transpose(out.Data, a.Data, m, n)
	}
	return out
}

func transpose[T Elem](dst, src []T, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
}

// --- softmax family ---

// SoftmaxRows computes row-wise softmax of a 2-D tensor.
func SoftmaxRows(a *Tensor) *Tensor {
	out := NewLike(a)
	SoftmaxRowsInto(out, a)
	return out
}

// SoftmaxRowsInto computes the row-wise softmax of a into dst (same
// shape and dtype). Exponentials are evaluated in float64 for both dtypes
// and the row sum accumulates in float64; float32 rounds at each store —
// fixed arithmetic per element, hence deterministic per dtype.
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
		softmaxRows(dst.Data32, a.Data32, m, n)
	} else {
		softmaxRows(dst.Data, a.Data, m, n)
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
			e := math.Exp(float64(v - mx))
			orow[j] = T(e)
			s += e
		}
		inv := 1 / s
		for j := range orow {
			orow[j] = T(float64(orow[j]) * inv)
		}
	}
}

// LogSumExpRows returns the log-sum-exp of each row of a 2-D tensor,
// always as float64 (it feeds the scalar loss path).
func LogSumExpRows(a *Tensor) []float64 {
	if a.Rank() != 2 {
		panic("tensor: LogSumExpRows requires a rank-2 tensor")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := make([]float64, m)
	if a.dt == Float32 {
		logSumExpRows(out, a.Data32, m, n)
	} else {
		logSumExpRows(out, a.Data, m, n)
	}
	return out
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
			s += math.Exp(float64(v - mx))
		}
		out[i] = float64(mx) + math.Log(s)
	}
}
