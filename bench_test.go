package pipemare_test

import (
	"io"
	"math/rand"
	"testing"

	"pipemare/internal/experiments"
	"pipemare/internal/tensor"
)

// benchExperiment runs a registered table/figure regenerator at Quick
// scale. One benchmark per table and figure of the paper's evaluation;
// run `go run ./cmd/pipemare-bench -full <name>` for reference-scale
// output.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, experiments.Quick)
	}
}

func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)     { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)     { benchExperiment(b, "table5") }
func BenchmarkFig1(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig3a(b *testing.B)      { benchExperiment(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)      { benchExperiment(b, "fig3b") }
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5a(b *testing.B)      { benchExperiment(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)      { benchExperiment(b, "fig5b") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)      { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)      { benchExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)      { benchExperiment(b, "fig19") }
func BenchmarkAppendixA3(b *testing.B) { benchExperiment(b, "appendixA3") }

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
	x := tensor.New(8, 8, 8, 8)
	for i := 0; i < x.Size(); i++ {
		x.SetFlat(i, rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(x, 3, 3, 1, 1)
	}
}
