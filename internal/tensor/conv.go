package tensor

import "fmt"

// Im2ColInto lowers a batched image tensor x with shape (B, C, H, W) into
// dst of shape (B*OH*OW, C*KH*KW), where each row holds one receptive
// field, so that convolution becomes a single MatMul with the reshaped
// kernel. Stride and same-style zero padding are supported. Every element
// of dst is written; dst and x share a dtype.
func Im2ColInto(dst, x *Tensor, kh, kw, stride, pad int) {
	if x.Rank() != 4 {
		panic("tensor: Im2ColInto requires a rank-4 (B,C,H,W) tensor")
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2ColInto produces empty output for input %v kernel %dx%d stride %d pad %d", x.Shape, kh, kw, stride, pad))
	}
	if dst.Rank() != 2 || dst.Shape[0] != b*oh*ow || dst.Shape[1] != c*kh*kw || dst.dt != x.dt {
		panic(fmt.Sprintf("tensor: Im2ColInto dst %v %v, expect (%d,%d) %v", dst.Shape, dst.dt, b*oh*ow, c*kh*kw, x.dt))
	}
	if x.dt == Float32 {
		im2col(dst.data32, x.data32, b, c, h, w, kh, kw, oh, ow, stride, pad)
	} else {
		im2col(dst.data, x.data, b, c, h, w, kh, kw, oh, ow, stride, pad)
	}
}

func im2col[T Elem](out, x []T, b, c, h, w, kh, kw, oh, ow, stride, pad int) {
	for row := 0; row < b*oh*ow; row++ {
		n := row / (oh * ow)
		oy := (row / ow) % oh
		ox := row % ow
		dst := out[row*c*kh*kw : (row+1)*c*kh*kw]
		col := 0
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride - pad + ky
				for kx := 0; kx < kw; kx++ {
					ix := ox*stride - pad + kx
					if iy >= 0 && iy < h && ix >= 0 && ix < w {
						dst[col] = x[((n*c+ch)*h+iy)*w+ix]
					} else {
						dst[col] = 0
					}
					col++
				}
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters the lowered
// matrix cols of shape (B*OH*OW, C*KH*KW) into dst, an image tensor of
// shape (B, C, H, W), accumulating overlapping contributions from zero. It
// is used for the convolution input gradient. dst and cols share a dtype.
func Col2ImInto(dst, cols *Tensor, kh, kw, stride, pad int) {
	if dst.Rank() != 4 {
		panic("tensor: Col2ImInto requires a rank-4 (B,C,H,W) destination")
	}
	b, c, h, w := dst.Shape[0], dst.Shape[1], dst.Shape[2], dst.Shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if cols.Rank() != 2 || cols.Shape[0] != b*oh*ow || cols.Shape[1] != c*kh*kw || dst.dt != cols.dt {
		panic(fmt.Sprintf("tensor: Col2ImInto shape mismatch: cols %v, expect (%d,%d)", cols.Shape, b*oh*ow, c*kh*kw))
	}
	dst.Zero()
	if cols.dt == Float32 {
		col2im(dst.data32, cols.data32, b, c, h, w, kh, kw, oh, ow, stride, pad)
	} else {
		col2im(dst.data, cols.data, b, c, h, w, kh, kw, oh, ow, stride, pad)
	}
}

func col2im[T Elem](out, cols []T, b, c, h, w, kh, kw, oh, ow, stride, pad int) {
	row := 0
	for n := 0; n < b; n++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				src := cols[row*c*kh*kw : (row+1)*c*kh*kw]
				col := 0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride - pad + ky
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride - pad + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								out[((n*c+ch)*h+iy)*w+ix] += src[col]
							}
							col++
						}
					}
				}
				row++
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution along one axis.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
