package tensor

import "fmt"

// Im2Col lowers a batched image tensor x with shape (B, C, H, W) into a
// matrix of shape (B*OH*OW, C*KH*KW) where each row holds one receptive
// field, so that convolution becomes a single MatMul with the reshaped
// kernel. Stride and same-style zero padding are supported. The output
// has x's dtype.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 4 {
		panic("tensor: Im2Col requires a rank-4 (B,C,H,W) tensor")
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for input %v kernel %dx%d stride %d pad %d", x.Shape, kh, kw, stride, pad))
	}
	out := NewOf(x.dt, b*oh*ow, c*kh*kw)
	if x.dt == Float32 {
		im2col(out.data32, x.data32, b, c, h, w, kh, kw, oh, ow, stride, pad)
	} else {
		im2col(out.data, x.data, b, c, h, w, kh, kw, oh, ow, stride, pad)
	}
	return out
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

// Col2Im is the adjoint of Im2Col: it scatters the lowered matrix cols of
// shape (B*OH*OW, C*KH*KW) back into an image tensor of shape (B, C, H, W),
// accumulating overlapping contributions. It is used for the convolution
// input gradient. The output has cols's dtype.
func Col2Im(cols *Tensor, b, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if cols.Rank() != 2 || cols.Shape[0] != b*oh*ow || cols.Shape[1] != c*kh*kw {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch: cols %v, expect (%d,%d)", cols.Shape, b*oh*ow, c*kh*kw))
	}
	out := NewOf(cols.dt, b, c, h, w)
	if cols.dt == Float32 {
		col2im(out.data32, cols.data32, b, c, h, w, kh, kw, oh, ow, stride, pad)
	} else {
		col2im(out.data, cols.data, b, c, h, w, kh, kw, oh, ow, stride, pad)
	}
	return out
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
