package transport

import (
	"io"
	"slices"

	"pipemare/internal/tensor"
)

// FrameWriter writes messages to a byte stream as wire frames, encoding
// each frame's payload straight from the message — its plain bytes, then
// its tensor lists out of tensor storage — into one reused frame scratch:
// no whole-payload buffer exists on the way out. Conn.Send is one; a
// checkpoint file is written through another, so the file is byte-for-byte
// a valid frame stream (magic, version, CRC per frame). A message is cut
// into frames of at most maxChunk payload bytes: every non-final frame
// carries exactly maxChunk and has the more-flag set.
type FrameWriter struct {
	w   io.Writer
	buf []byte // the frame being built: header, payload, CRC
	enc encoder
}

// NewFrameWriter frames messages onto w, one Write per frame.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteMsg writes one message. m's tensors are read until it returns.
func (fw *FrameWriter) WriteMsg(m Msg) error {
	fw.enc = encoder{pend: m.Data, lists: m.Lists, ti: -1, small: fw.enc.small}
	h := Header{Type: m.Type, Replica: m.Replica, Stage: m.Stage}
	for rest := m.PayloadLen(); ; {
		n := min(rest, maxChunk)
		rest -= n
		h.Flags = 0
		if rest > 0 {
			h.Flags = flagMore
		}
		buf := appendHeader(slices.Grow(fw.buf[:0], headerLen+n+trailerLen), h, n)
		buf = buf[:headerLen+n]
		fw.enc.fill(buf[headerLen:])
		fw.buf = appendCRC(buf, 0)
		if _, err := fw.w.Write(fw.buf); err != nil {
			return err
		}
		if rest == 0 {
			return nil
		}
	}
}

// encoder yields a message's payload in pieces of any size, resuming
// where the last piece ended — inside the plain prefix, a list's count, a
// tensor's header or its element block. Whole elements convert from
// tensor storage directly into the piece; an element that straddles two
// pieces is encoded aside and carried over.
type encoder struct {
	pend  []byte             // bytes due before anything else: prefix, count, tensor header, carried element
	lists [][]*tensor.Tensor // the tensor part; lists[0] is next
	ti    int                // next tensor of lists[0]; -1 before the list's count
	cur   *tensor.Tensor     // the tensor whose elements are due once pend drains
	off   int                // next element of cur
	small []byte             // backs pend for everything but the prefix
}

// fill writes the next len(dst) payload bytes. The caller asks for no
// more than the message's PayloadLen in total.
func (e *encoder) fill(dst []byte) {
	for len(dst) > 0 {
		switch {
		case len(e.pend) > 0:
			n := copy(dst, e.pend)
			dst, e.pend = dst[n:], e.pend[n:]
		case e.cur != nil:
			es := e.cur.DType().Size()
			n := min(len(dst)/es, e.cur.Size()-e.off)
			putElems(dst[:n*es], e.cur, e.off)
			dst, e.off = dst[n*es:], e.off+n
			if e.off == e.cur.Size() {
				e.cur = nil
			} else if len(dst) > 0 {
				// Fewer than es bytes of room: the element straddles.
				e.small = slices.Grow(e.small[:0], es)[:es]
				putElems(e.small, e.cur, e.off)
				e.pend, e.off = e.small, e.off+1
			}
		case e.ti < 0:
			e.small = AppendU32(e.small[:0], uint32(len(e.lists[0])))
			e.pend, e.ti = e.small, 0
		case e.ti < len(e.lists[0]):
			e.cur, e.off = e.lists[0][e.ti], 0
			e.small = appendTensorHeader(e.small[:0], e.cur)
			e.pend, e.ti = e.small, e.ti+1
		default:
			e.lists, e.ti = e.lists[1:], -1
		}
	}
}
