package pipemare_test

import (
	"math/rand"
	"testing"

	"pipemare/internal/tensor"
)

// Substrate micro-benchmarks: the kernels the simulator spends its time
// in, for allocation and throughput tracking with -benchmem.

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(64, 64)
	y := tensor.New(64, 64)
	for i := 0; i < x.Size(); i++ {
		x.SetFlat(i, rng.NormFloat64())
		y.SetFlat(i, rng.NormFloat64())
	}
	dst := tensor.New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		tensor.MatMulInto(dst, x, y)
	}
}

func BenchmarkIm2ColConv(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, cols := tensor.New(8, 8, 8, 8), tensor.New(8*8*8, 8*3*3)
	for i := 0; i < x.Size(); i++ {
		x.SetFlat(i, rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2ColInto(cols, x, 3, 3, 1, 1)
	}
}
