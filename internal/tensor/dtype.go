package tensor

import "fmt"

// DType identifies a tensor's element type. The zero value is Float64 —
// the package's historical default — so zero-value construction and every
// pre-dtype call site keep their meaning.
type DType uint8

const (
	// Float64 is the default element type (and the zero DType).
	Float64 DType = iota
	// Float32 halves memory traffic; it is the dtype real trainers use.
	Float32
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	if d == Float32 {
		return 4
	}
	return 8
}

// String names the dtype the way the bench records spell it.
func (d DType) String() string {
	if d == Float32 {
		return "float32"
	}
	return "float64"
}

// ParseDType parses "float32"/"float64" (as spelled by DType.String).
func ParseDType(s string) (DType, error) {
	switch s {
	case "float64", "":
		return Float64, nil
	case "float32":
		return Float32, nil
	}
	return Float64, fmt.Errorf("tensor: unknown dtype %q (want float32 or float64)", s)
}

// Elem constrains the generic kernels to the two supported element types.
type Elem interface {
	float32 | float64
}

// dtypeOf returns the DType of the instantiated element type. The boxed
// zero value hits the runtime's static small-value cache, so this never
// allocates.
func dtypeOf[T Elem]() DType {
	var z T
	if _, ok := any(z).(float32); ok {
		return Float32
	}
	return Float64
}

// F64 returns t's float64 backing slice, panicking when t is not a
// Float64 tensor. Together with F32 it is how dispatch sites hand a
// tensor's storage to the generic kernels with zero boxing.
func F64(t *Tensor) []float64 {
	if t.dt != Float64 {
		panic("tensor: float64 access to a " + t.dt.String() + " tensor")
	}
	return t.data
}

// F32 returns t's float32 backing slice, panicking when t is not a
// Float32 tensor.
func F32(t *Tensor) []float32 {
	if t.dt != Float32 {
		panic("tensor: float32 access to a " + t.dt.String() + " tensor")
	}
	return t.data32
}

// NewOf returns a zero-filled tensor of the given dtype and shape.
func NewOf(dt DType, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The message formats a copy so that shape itself does not
			// escape: callers' variadic shape lists stay on their stacks.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	t := &Tensor{Shape: append([]int(nil), shape...), dt: dt}
	if dt == Float32 {
		t.data32 = make([]float32, n)
	} else {
		t.data = make([]float64, n)
	}
	return t
}

// NewLike returns a zero-filled tensor with t's dtype and shape.
func NewLike(t *Tensor) *Tensor { return NewOf(t.dt, t.Shape...) }

// DType returns t's element type.
func (t *Tensor) DType() DType { return t.dt }

// Bytes returns the storage size of t's elements in bytes.
func (t *Tensor) Bytes() int { return t.Size() * t.dt.Size() }

// FlatAt reads flat element i as a float64, whatever the dtype — the
// scalar escape hatch for token ids, labels and metric reads.
func (t *Tensor) FlatAt(i int) float64 {
	if t.dt == Float32 {
		return float64(t.data32[i])
	}
	return t.data[i]
}

// SetFlat stores v (rounded for float32 tensors) at flat element i.
func (t *Tensor) SetFlat(i int, v float64) {
	if t.dt == Float32 {
		t.data32[i] = float32(v)
	} else {
		t.data[i] = v
	}
}

// CopyRange copies n elements from src[so:] into dst[do:], converting
// elementwise when the dtypes differ (float64→float32 rounds; the
// reverse is exact). Same-dtype copies are raw copies.
func CopyRange(dst *Tensor, do int, src *Tensor, so, n int) {
	switch {
	case dst.dt == src.dt && dst.dt == Float32:
		copy(dst.data32[do:do+n], src.data32[so:so+n])
	case dst.dt == src.dt:
		copy(dst.data[do:do+n], src.data[so:so+n])
	case dst.dt == Float32:
		d, s := dst.data32[do:do+n], src.data[so:so+n]
		for i := range d {
			d[i] = float32(s[i])
		}
	default:
		d, s := dst.data[do:do+n], src.data32[so:so+n]
		for i := range d {
			d[i] = float64(s[i])
		}
	}
}

// CastTo converts t in place to dtype dt (a no-op when it already is):
// the backing store is reallocated and every element converted. Views
// sharing the old store are not chased — cast before creating views.
func (t *Tensor) CastTo(dt DType) {
	if t.dt == dt {
		return
	}
	if dt == Float32 {
		d := make([]float32, len(t.data))
		for i, v := range t.data {
			d[i] = float32(v)
		}
		t.data, t.data32, t.dt = nil, d, Float32
	} else {
		d := make([]float64, len(t.data32))
		for i, v := range t.data32 {
			d[i] = float64(v)
		}
		t.data32, t.data, t.dt = nil, d, Float64
	}
}
