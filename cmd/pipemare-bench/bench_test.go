package main

import (
	"io"
	"testing"
)

// benchExperiment runs a registered table/figure regenerator at quick
// scale. One benchmark per table and figure of the paper's evaluation;
// run `go run ./cmd/pipemare-bench -full <name>` for reference-scale
// output.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	for i := 0; i < b.N; i++ {
		e.Run(io.Discard, quick)
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
