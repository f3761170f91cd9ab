package tensor

import (
	"fmt"
	"math"
)

// The row kernels: LayerNorm, ReLU and the one-add row ops (the residual
// join, the bias add and the bias-gradient fold). They follow the GELU
// and commit kernels' pattern: a Go twin that is the spec, and on AVX-512
// hosts an assembly kernel (rows_amd64.s) that performs the twin's IEEE
// operations in the twin's order, with separate VMUL/VADD/VSUB/VDIV/VSQRT
// and no FMA. The twin's sums are serial chains, and a chain's order is
// part of its result, so the kernels lay their lanes out to keep it:
//
//   - a row statistic (LayerNorm's mean and variance, its backward's m1
//     and m2) runs one float64 lane per row, eight rows at a time, each
//     lane summing its own row in ascending column order;
//   - a column sum (dγ, dβ, the bias gradient) runs one lane per column,
//     each lane summing its column in ascending row order;
//   - everything elementwise runs one lane per column of a row.
//
// Every kernel covers whole rows with masked edges, except ReLU and the
// residual join, which are flat: their kernels cover the largest multiple
// of a vector, and the twin the tail.

// flatLanes64 and flatLanes32 are the widths of the flat kernels (ReLU,
// the residual join): one ZMM register of the element type.
const (
	flatLanes64 = 8
	flatLanes32 = 16
)

// LayerNormInto normalizes each row of the (n, d) tensor x and applies the
// per-feature gain and bias (each of d elements): xhat = (x − μ)/σ and
// out = gain·xhat + bias, with σ = √(var + eps). It writes the row's 1/σ
// into invStd (n values) for the backward. Statistics accumulate in
// float64 for both dtypes; float32 rounds once at each store.
func LayerNormInto(out, xhat, x, gain, bias *Tensor, invStd []float64, eps float64) {
	n, d := rowsCols(x, "LayerNormInto")
	checkSame(out, x, "LayerNormInto")
	checkSame(xhat, x, "LayerNormInto")
	checkVec(gain, x, d, "LayerNormInto")
	checkVec(bias, x, d, "LayerNormInto")
	invStd = invStd[:n]
	if x.dt == Float32 {
		layerNorm(out.data32, xhat.data32, x.data32, gain.data32, bias.data32, invStd, n, d, eps)
	} else {
		layerNorm(out.data, xhat.data, x.data, gain.data, bias.data, invStd, n, d, eps)
	}
}

// LayerNormGradInto writes into dx the gradient of LayerNormInto's output
// with respect to its input, from the upstream gradient dy, the saved xhat
// and invStd and the gain gain (the layer's backward weights), and folds
// dγ = Σᵢ dy·xhat and dβ = Σᵢ dy into gGrad and bGrad with one add per
// element: per column, the rows summed from +0 in ascending order in
// float64, then rounded once and added.
func LayerNormGradInto(dx, dy, xhat, gain, gGrad, bGrad *Tensor, invStd []float64) {
	n, d := rowsCols(dy, "LayerNormGradInto")
	checkSame(dx, dy, "LayerNormGradInto")
	checkSame(xhat, dy, "LayerNormGradInto")
	checkVec(gain, dy, d, "LayerNormGradInto")
	checkVec(gGrad, dy, d, "LayerNormGradInto")
	checkVec(bGrad, dy, d, "LayerNormGradInto")
	invStd = invStd[:n]
	if dy.dt == Float32 {
		layerNormGrad(dx.data32, dy.data32, xhat.data32, gain.data32, gGrad.data32, bGrad.data32, invStd, n, d)
	} else {
		layerNormGrad(dx.data, dy.data, xhat.data, gain.data, gGrad.data, bGrad.data, invStd, n, d)
	}
}

// rowsCols returns the two dimensions of a rank-2 tensor.
func rowsCols(t *Tensor, op string) (int, int) {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s wants a matrix, got shape %v", op, t.Shape))
	}
	return t.Shape[0], t.Shape[1]
}

// checkVec requires v to hold d elements of m's dtype.
func checkVec(v, m *Tensor, d int, op string) {
	if v.Size() != d || v.dt != m.dt {
		panic(fmt.Sprintf("tensor: %s wants %d %s values, got shape %v %s", op, d, m.dt, v.Shape, v.dt))
	}
}

// layerNorm runs the AVX-512 kernel over every row when the host has it,
// and the Go twin otherwise.
func layerNorm[T Elem](out, xhat, x, gain, bias []T, invStd []float64, n, d int, eps float64) {
	if !haveAVX512 || n == 0 || d == 0 {
		lnFwd(out, xhat, x, gain, bias, invStd, n, d, eps)
		return
	}
	_, _, _ = out[n*d-1], xhat[n*d-1], x[n*d-1]
	_, _ = gain[d-1], bias[d-1]
	if dtypeOf[T]() == Float64 {
		lnFwd8f64(ptr(out), ptr(xhat), ptr(x), ptr(gain), ptr(bias), ptr(invStd), n, d, eps)
	} else {
		lnFwd8f32(ptr(out), ptr(xhat), ptr(x), ptr(gain), ptr(bias), ptr(invStd), n, d, eps)
	}
}

// lnFwd is the Go twin of the LayerNorm forward kernels.
func lnFwd[T Elem](out, xhat, x, gain, bias []T, invStd []float64, n, d int, eps float64) {
	for i := 0; i < n; i++ {
		row := x[i*d : (i+1)*d]
		mu := 0.0
		for _, v := range row {
			mu += float64(v)
		}
		mu /= float64(d)
		va := 0.0
		for _, v := range row {
			va += float64((float64(v) - mu) * (float64(v) - mu))
		}
		va /= float64(d)
		is := 1 / math.Sqrt(va+eps)
		invStd[i] = is
		for j, v := range row {
			xh := (float64(v) - mu) * is
			xhat[i*d+j] = T(xh)
			out[i*d+j] = T(float64(float64(gain[j])*xh) + float64(bias[j]))
		}
	}
}

// layerNormGrad is layerNorm's backward dispatch.
func layerNormGrad[T Elem](out, dy, xhat, gainB, gGrad, bGrad []T, invStd []float64, n, d int) {
	if !haveAVX512 || n == 0 || d == 0 {
		lnBwd(out, dy, xhat, gainB, gGrad, bGrad, invStd, n, d)
		return
	}
	_, _, _ = out[n*d-1], dy[n*d-1], xhat[n*d-1]
	_, _, _ = gainB[d-1], gGrad[d-1], bGrad[d-1]
	if dtypeOf[T]() == Float64 {
		lnBwd8f64(ptr(out), ptr(dy), ptr(xhat), ptr(gainB), ptr(gGrad), ptr(bGrad), ptr(invStd), n, d)
	} else {
		lnBwd8f32(ptr(out), ptr(dy), ptr(xhat), ptr(gainB), ptr(gGrad), ptr(bGrad), ptr(invStd), n, d)
	}
}

// lnBwd is the Go twin of the LayerNorm backward kernels.
func lnBwd[T Elem](out, dy, xhat, gainB, gGrad, bGrad []T, invStd []float64, n, d int) {
	// dγ_j = Σ_i dy_ij·xhat_ij and dβ_j = Σ_i dy_ij: rows accumulate in
	// ascending order per column. The sums form in float64 and land on
	// the gradient with one add per element.
	for j := 0; j < d; j++ {
		sg, sb := 0.0, 0.0
		for i := 0; i < n; i++ {
			g := float64(dy[i*d+j])
			sg += float64(g * float64(xhat[i*d+j]))
			sb += g
		}
		gGrad[j] += T(sg)
		bGrad[j] += T(sb)
	}
	for i := 0; i < n; i++ {
		m1, m2 := 0.0, 0.0
		for j := 0; j < d; j++ {
			dx := float64(float64(dy[i*d+j]) * float64(gainB[j]))
			m1 += dx
			m2 += float64(dx * float64(xhat[i*d+j]))
		}
		m1 /= float64(d)
		m2 /= float64(d)
		is := invStd[i]
		for j := 0; j < d; j++ {
			xh := float64(xhat[i*d+j])
			dx := float64(float64(dy[i*d+j]) * float64(gainB[j]))
			out[i*d+j] = T(is * (dx - m1 - float64(xh*m2)))
		}
	}
}

// ReLUInto writes max(x, 0) into dst (same shape and dtype): x where x > 0,
// else +0 (so −0 and NaN give +0).
func ReLUInto(dst, x *Tensor) {
	checkSame(dst, x, "ReLUInto")
	if x.dt == Float32 {
		relu(dst.data32, x.data32)
	} else {
		relu(dst.data, x.data)
	}
}

// ReLUGradInto writes dy where x > 0, else +0, into dst (all three the
// same shape and dtype).
func ReLUGradInto(dst, dy, x *Tensor) {
	checkSame(dst, x, "ReLUGradInto")
	checkSame(dy, x, "ReLUGradInto")
	if x.dt == Float32 {
		reluGrad(dst.data32, dy.data32, x.data32)
	} else {
		reluGrad(dst.data, dy.data, x.data)
	}
}

// relu runs the AVX-512 kernel over the largest multiple of a vector when
// the host has it, and the Go twin over the rest.
func relu[T Elem](out, x []T) {
	i := flatSplit[T](len(x))
	if i > 0 {
		_ = out[i-1]
		if dtypeOf[T]() == Float64 {
			reluFwd8f64(ptr(out), ptr(x), i)
		} else {
			reluFwd16f32(ptr(out), ptr(x), i)
		}
	}
	reluFwd(out[i:], x[i:])
}

// reluFwd is the Go twin of the ReLU forward kernels.
func reluFwd[T Elem](out, x []T) {
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// reluGrad is relu's backward dispatch.
func reluGrad[T Elem](out, dy, x []T) {
	i := flatSplit[T](len(x))
	if i > 0 {
		_, _ = out[i-1], dy[i-1]
		if dtypeOf[T]() == Float64 {
			reluBwd8f64(ptr(out), ptr(dy), ptr(x), i)
		} else {
			reluBwd16f32(ptr(out), ptr(dy), ptr(x), i)
		}
	}
	reluBwd(out[i:], dy[i:], x[i:])
}

// reluBwd is the Go twin of the ReLU backward kernels.
func reluBwd[T Elem](out, dy, x []T) {
	for i, v := range dy {
		if x[i] > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// flatSplit returns how many of n elements a flat kernel covers: the
// largest multiple of a vector of T on an AVX-512 host, else none.
func flatSplit[T Elem](n int) int {
	switch {
	case !haveAVX512:
		return 0
	case dtypeOf[T]() == Float32:
		return n &^ (flatLanes32 - 1)
	}
	return n &^ (flatLanes64 - 1)
}

// SumInto writes a + b into dst (all three the same shape and dtype): the
// residual join.
func SumInto(dst, a, b *Tensor) {
	checkSame(dst, a, "SumInto")
	checkSame(b, a, "SumInto")
	if a.dt == Float32 {
		sum(dst.data32, a.data32, b.data32)
	} else {
		sum(dst.data, a.data, b.data)
	}
}

// sum runs the AVX-512 kernel over the largest multiple of a vector when
// the host has it, and the Go twin over the rest.
func sum[T Elem](out, a, b []T) {
	i := flatSplit[T](len(out))
	if i > 0 {
		_, _ = a[i-1], b[i-1]
		if dtypeOf[T]() == Float64 {
			add8f64(ptr(out), ptr(a), ptr(b), i)
		} else {
			add16f32(ptr(out), ptr(a), ptr(b), i)
		}
	}
	addRows(out[i:], a[i:], b[i:])
}

// addRows is the Go twin of the residual-join kernels.
func addRows[T Elem](out, a, b []T) {
	for i := range out {
		out[i] = a[i] + b[i]
	}
}

// AddBiasRows adds the vector b (d elements) to every row of the (n, d)
// matrix dst, in place.
func AddBiasRows(dst, b *Tensor) {
	n, d := rowsCols(dst, "AddBiasRows")
	checkVec(b, dst, d, "AddBiasRows")
	if dst.dt == Float32 {
		addBias(dst.data32, b.data32, n, d)
	} else {
		addBias(dst.data, b.data, n, d)
	}
}

// addBias runs the AVX-512 kernel over every row when the host has it,
// and the Go twin otherwise.
func addBias[T Elem](out, b []T, rows, cols int) {
	if !haveAVX512 || rows == 0 || cols == 0 {
		addBiasRows(out, b, rows, cols)
		return
	}
	_, _ = out[rows*cols-1], b[cols-1]
	if dtypeOf[T]() == Float64 {
		addBias8f64(ptr(out), ptr(b), rows, cols)
	} else {
		addBias16f32(ptr(out), ptr(b), rows, cols)
	}
}

// addBiasRows is the Go twin of the bias-add kernels.
func addBiasRows[T Elem](out, b []T, rows, cols int) {
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			row[j] += b[j]
		}
	}
}

// FoldColSums adds the column sums of the (n, d) matrix dy into g (d
// elements) with one add per element (the Linear and Conv2d bias
// gradients): per column, the rows summed from +0 in ascending order in
// the dtype, then g[j] + s — the bits of summing into a zeroed temporary
// and folding it with AddInto.
func FoldColSums(g, dy *Tensor) {
	n, d := rowsCols(dy, "FoldColSums")
	checkVec(g, dy, d, "FoldColSums")
	if dy.dt == Float32 {
		foldCols(g.data32, dy.data32, n, d)
	} else {
		foldCols(g.data, dy.data, n, d)
	}
}

// foldCols runs the AVX-512 kernel over every column when the host has
// it, and the Go twin otherwise.
func foldCols[T Elem](g, dy []T, rows, cols int) {
	if !haveAVX512 || rows == 0 || cols == 0 {
		foldColSums(g, dy, rows, cols)
		return
	}
	_, _ = dy[rows*cols-1], g[cols-1]
	if dtypeOf[T]() == Float64 {
		foldCols8f64(ptr(g), ptr(dy), rows, cols)
	} else {
		foldCols16f32(ptr(g), ptr(dy), rows, cols)
	}
}

// foldColSums is the Go twin of the column-fold kernels. Sixteen columns
// at a time ride in a stack array, so dy is read row by row.
func foldColSums[T Elem](g, dy []T, rows, cols int) {
	for j0 := 0; j0 < cols; j0 += 16 {
		w := min(16, cols-j0)
		var s [16]T
		for i := 0; i < rows; i++ {
			for j, v := range dy[i*cols+j0 : i*cols+j0+w] {
				s[j] += v
			}
		}
		for j, v := range s[:w] {
			g[j0+j] += v
		}
	}
}
