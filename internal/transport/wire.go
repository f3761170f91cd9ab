package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"pipemare/internal/tensor"
)

// Payload codec: big-endian fixed-width integers and scalar floats, and
// tensor element blocks as little-endian IEEE-754 bits — a little-endian
// host's storage bytes, so a block moves as one copy (putElems) —
// composed with a panic-free cursor so malformed payloads surface
// as errors (FuzzDecodeFrame covers the frame layer, FuzzCursor the
// decoders below, which never index past their input). There is one
// encoder and one decoder, exported because the wire is not their only
// user: a checkpoint section (internal/core) is a message payload, byte
// for byte, and the benchmark times them directly.

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendF64 appends the raw IEEE-754 bits of v.
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

// AppendBool appends one byte, 1 for true.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Cursor reads a payload left to right, latching the first error.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor reads b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("transport: "+format, args...)
	}
}

func (c *Cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b) < n {
		c.fail("payload truncated: need %d bytes, have %d", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *Cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes one byte, refusing any but 0 and 1: a bool has one encoding.
func (c *Cursor) Bool() bool {
	b := c.u8()
	if b > 1 {
		c.fail("bool byte %d is neither 0 nor 1", b)
	}
	return b == 1
}

// U32 decodes a big-endian uint32.
func (c *Cursor) U32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U64 decodes a big-endian uint64.
func (c *Cursor) U64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// F64 decodes raw IEEE-754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// I32 decodes a u32 written by AppendU32(uint32(v)) back to a signed int.
func (c *Cursor) I32() int { return int(int32(c.U32())) }

// Count decodes a u32 element count, bounding it so a corrupt length
// cannot force a huge allocation: each element needs at least min bytes
// of remaining payload.
func (c *Cursor) Count(min int) int {
	n := int(c.U32())
	if c.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n > len(c.b)/min {
		c.fail("payload count %d exceeds remaining %d bytes", n, len(c.b))
		return 0
	}
	return n
}

// Done errors unless the payload decoded exactly.
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("transport: %d trailing payload bytes", len(c.b))
	}
	return nil
}

// AppendTensor encodes a tensor: a dtype tag byte, rank, dims, then the
// little-endian IEEE-754 bits of the contiguous data at the dtype's
// width. The tag is what lets a float32 run checkpoint and all-reduce
// without ever widening to float64 on the wire. dst grows once, by the
// exact encoded size, and the elements move as one block.
func AppendTensor(dst []byte, t *tensor.Tensor) []byte {
	dst = slices.Grow(dst, tensorLen(t))
	dst = appendTensorHeader(dst, t)
	n := len(dst)
	dst = dst[:n+t.Bytes()]
	putElems(dst[n:], t, 0)
	return dst
}

// tensorLen is the encoded size of t.
func tensorLen(t *tensor.Tensor) int { return 5 + 4*len(t.Shape) + t.Bytes() }

// tensorsLen is the encoded size of a counted tensor list.
func tensorsLen(ts []*tensor.Tensor) int {
	n := 4
	for _, t := range ts {
		n += tensorLen(t)
	}
	return n
}

// appendTensorHeader appends what precedes a tensor's elements: dtype
// tag, rank, dims.
func appendTensorHeader(dst []byte, t *tensor.Tensor) []byte {
	dst = append(dst, byte(t.DType()))
	dst = AppendU32(dst, uint32(len(t.Shape)))
	for _, d := range t.Shape {
		dst = AppendU32(dst, uint32(d))
	}
	return dst
}

// littleEndian reports a little-endian host, whose tensor storage bytes
// are the wire's element block as they lie.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putElems writes bytes [off, off+len(dst)) of t's element block into
// dst — the one element path behind AppendTensor and the frame encoder
// (stream.go), which may cut the block anywhere, mid-element included. On
// a little-endian host it is one copy of the storage bytes.
func putElems(dst []byte, t *tensor.Tensor, off int) {
	if littleEndian {
		copy(dst, tensor.ByteView(t)[off:])
		return
	}
	putElemsLoop(dst, t, off)
}

// putElemsLoop is putElems element by element, for a big-endian host.
func putElemsLoop(dst []byte, t *tensor.Tensor, off int) {
	es := t.DType().Size()
	var el [8]byte
	for i, skip := off/es, off%es; len(dst) > 0; i, skip = i+1, 0 {
		if es == 4 {
			binary.LittleEndian.PutUint32(el[:], math.Float32bits(tensor.F32(t)[i]))
		} else {
			binary.LittleEndian.PutUint64(el[:], math.Float64bits(tensor.F64(t)[i]))
		}
		dst = dst[copy(dst, el[skip:es]):]
	}
}

// getElems decodes src, a whole element block, into t's storage.
func getElems(t *tensor.Tensor, src []byte) {
	if littleEndian {
		copy(tensor.ByteView(t), src)
		return
	}
	getElemsLoop(t, src)
}

// getElemsLoop is getElems element by element, for a big-endian host.
func getElemsLoop(t *tensor.Tensor, src []byte) {
	if t.DType() == tensor.Float32 {
		d := tensor.F32(t)[:len(src)/4]
		for i := range d {
			d[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
			src = src[4:]
		}
		return
	}
	d := tensor.F64(t)[:len(src)/8]
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

// tensorInto decodes one tensor, reusing buf when its shape and dtype
// match (the steady-state path for per-stage gradient and state traffic;
// it allocates nothing). Every bound is checked before the element block
// is taken in one piece.
func (c *Cursor) tensorInto(buf *tensor.Tensor) *tensor.Tensor {
	tag := c.u8()
	if c.err != nil {
		return nil
	}
	if tag > uint8(tensor.Float32) {
		c.fail("tensor dtype tag %d unknown", tag)
		return nil
	}
	dt := tensor.DType(tag)
	es := dt.Size()
	rank := c.Count(4)
	dims := c.b // the rank dims, should buf not fit them
	reuse := buf != nil && buf.DType() == dt && len(buf.Shape) == rank
	size := 1
	for i := 0; i < rank; i++ {
		d := int(c.U32())
		if c.err != nil {
			return nil
		}
		if d <= 0 || (size > 0 && d > len(c.b)/(es*size)+1) {
			c.fail("tensor dim %d out of range", d)
			return nil
		}
		reuse = reuse && buf.Shape[i] == d
		size *= d
	}
	if size > len(c.b)/es {
		c.fail("tensor size %d exceeds remaining payload", size)
		return nil
	}
	dst := buf
	if !reuse {
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = int(binary.BigEndian.Uint32(dims[4*i:]))
		}
		dst = tensor.NewOf(dt, shape...)
	}
	getElems(dst, c.take(size*es))
	return dst
}

// AppendTensors encodes a counted list of tensors, growing dst once for
// the whole list.
func AppendTensors(dst []byte, ts []*tensor.Tensor) []byte {
	dst = slices.Grow(dst, tensorsLen(ts))
	dst = AppendU32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = AppendTensor(dst, t)
	}
	return dst
}

// TensorsInto decodes a counted tensor list, reusing bufs elementwise.
func (c *Cursor) TensorsInto(bufs []*tensor.Tensor) []*tensor.Tensor {
	n := c.Count(4)
	if c.err != nil {
		return nil
	}
	out := bufs
	if cap(out) < n {
		out = make([]*tensor.Tensor, n)
		copy(out, bufs)
	}
	out = out[:n]
	for i := 0; i < n; i++ {
		out[i] = c.tensorInto(out[i])
		if c.err != nil {
			return nil
		}
	}
	return out
}

// RingMsg builds the message that carries a stage's weight-version ring —
// MsgSetRing on the wire, a ring section in a checkpoint: the ring's
// oldest version number and the snapshot count as the plain prefix, then
// the snapshots, oldest to newest, as the message's tensor lists.
func RingMsg(typ byte, stage, base int, snaps [][]*tensor.Tensor) Msg {
	prefix := AppendU32(AppendU32(nil, uint32(base)), uint32(len(snaps)))
	return Msg{Type: typ, Stage: int32(stage), Data: prefix, Lists: snaps}
}

// Ring decodes a RingMsg payload.
func (c *Cursor) Ring() (base int, snaps [][]*tensor.Tensor) {
	base = c.I32()
	snaps = make([][]*tensor.Tensor, c.Count(4))
	for i := range snaps {
		snaps[i] = c.TensorsInto(nil)
	}
	return base, snaps
}
