package main

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"pipemare/internal/core"
	"pipemare/internal/experiments"
)

// quick is the command line "pipemare-bench <name>": quick scale on the
// Reference engine in float64.
var quick = &config{}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "fig17", "fig18", "fig19", "appendixA3",
	}
	for _, name := range want {
		if _, ok := lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	all := experimentList()
	if len(all) < len(want) {
		t.Fatalf("registry has %d experiments, want at least %d", len(all), len(want))
	}
	if !slices.IsSortedFunc(all, func(a, b experiment) int { return strings.Compare(a.Name, b.Name) }) {
		t.Fatal("experimentList is not sorted by name: \"all\" runs them in list order")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := lookup("nope"); ok {
		t.Fatal("unknown name must not resolve")
	}
}

func TestAnalyticExperimentsProduceOutput(t *testing.T) {
	// The pure-theory experiments are fast enough to run in tests; each
	// must produce non-trivial output and not panic.
	for _, name := range []string{"table1", "table4", "table5", "fig1", "fig3a", "fig5a", "fig5b", "fig6", "fig16", "appendixA3"} {
		e, ok := lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		var buf bytes.Buffer
		e.Run(&buf, quick)
		if buf.Len() < 80 {
			t.Errorf("%s produced only %d bytes", name, buf.Len())
		}
	}
}

func TestTable5OutputMatchesPaperRatios(t *testing.T) {
	e, _ := lookup("table5")
	var buf bytes.Buffer
	e.Run(&buf, quick)
	out := buf.String()
	for _, frag := range []string{"0.097X", "0.104X", "0.105X"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table5 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig3aOutputShowsDivergenceOnlyAtTau10(t *testing.T) {
	e, _ := lookup("fig3a")
	var buf bytes.Buffer
	e.Run(&buf, quick)
	lines := strings.Split(buf.String(), "\n")
	found := map[string]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 5 && (f[0] == "0" || f[0] == "5" || f[0] == "10") {
			found[f[0]] = f[4] == "true"
		}
	}
	if found["0"] || found["5"] || !found["10"] {
		t.Fatalf("divergence flags wrong: %v\n%s", found, buf.String())
	}
}

func TestWorkloadRunSmoke(t *testing.T) {
	// A very short run through the full Run plumbing, checking the derived
	// throughput/memory columns.
	wl := experiments.CIFARLike()
	r := quick.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, Epochs: 2, Seed: 1})
	if r.Stages != 107 || r.N != 8 {
		t.Fatalf("stages=%d N=%d", r.Stages, r.N)
	}
	if r.Run.Epochs() != 2 {
		t.Fatalf("epochs recorded = %d", r.Run.Epochs())
	}
	// T2 on SGD costs 4/3 of the sync base (Table 2's 1.33X).
	if r.MemRatio < 1.32 || r.MemRatio > 1.34 {
		t.Fatalf("mem ratio = %g, want 1.33", r.MemRatio)
	}
	if r.Throughput != 1.0 {
		t.Fatalf("PipeMare throughput = %g, want 1.0", r.Throughput)
	}
	gp := quick.train(wl, runSpec{Method: core.GPipe, Epochs: 2, Seed: 1})
	if gp.Throughput != 0.3 {
		t.Fatalf("GPipe throughput = %g, want 0.3", gp.Throughput)
	}
	if gp.MemRatio != 1.0 {
		t.Fatalf("GPipe mem ratio = %g, want 1.0", gp.MemRatio)
	}
	pd := quick.train(wl, runSpec{Method: core.PipeDream, Epochs: 2, Seed: 1})
	if pd.MemRatio <= 1.5 {
		t.Fatalf("PipeDream mem ratio = %g, want well above PipeMare's", pd.MemRatio)
	}
}

func TestScaleEpochs(t *testing.T) {
	full, quick := &config{full: true}, &config{}
	if full.scaleEpochs(60) != 60 {
		t.Fatal("-full must keep the reference budget")
	}
	if got := quick.scaleEpochs(60); got != 15 {
		t.Fatalf("quick scale of 60 = %d, want 15", got)
	}
	if got := quick.scaleEpochs(8); got != 6 {
		t.Fatalf("quick scale of 8 = %d, want floor of 6", got)
	}
}

func TestTablePrinter(t *testing.T) {
	tb := newTable("A", "B")
	tb.add("x", 1.5)
	tb.add("longer", "cell")
	var buf bytes.Buffer
	tb.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "longer") || !strings.Contains(out, "1.5") {
		t.Fatalf("table output wrong:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Fatalf("table must have header, separator and two rows:\n%s", out)
	}
}

func TestExperimentsWriteToWriter(t *testing.T) {
	// Experiments must honor the writer they are given (no stray stdout):
	// run one and ensure output lands in the buffer.
	e, _ := lookup("fig6")
	var buf bytes.Buffer
	e.Run(&buf, quick)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("fig6 must write its header to the provided writer")
	}
	// And io.Discard must be usable.
	e.Run(io.Discard, quick)
}

// TestFig19HonoursDType pins that fig19 trains in the command line's
// dtype: its float32 table is not the float64 one.
func TestFig19HonoursDType(t *testing.T) {
	table := func(args ...string) string {
		c, err := parseFlags(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fig19(&b, c)
		if strings.Contains(b.String(), "error") {
			t.Fatalf("pipemare-bench %v: %s", args, b.String())
		}
		return b.String()
	}
	if f64, f32 := table("fig19"), table("-dtype", "float32", "fig19"); f64 == f32 {
		t.Fatalf("-dtype float32 fig19 printed the float64 table:\n%s", f32)
	}
}
