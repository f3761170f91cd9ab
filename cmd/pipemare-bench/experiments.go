package main

// The regenerators of every table and figure of the PipeMare paper's
// evaluation (DESIGN.md §4 indexes them): analytic.go holds the
// closed-form and quadratic-model ones, dnn.go and hogwild.go the ones
// that train, and workloads.go the run a training regenerator makes.

import (
	"fmt"
	"io"
	"strings"
)

// experiment is a table or figure regenerator. It writes the rows or
// series the paper reports to w, at the scale, and with the engine,
// partition, replica count and dtype, that c names.
type experiment struct {
	Name  string
	Title string
	Run   func(w io.Writer, c *config)
}

// experimentList returns every regenerator, sorted by name.
func experimentList() []experiment {
	return []experiment{
		{"appendixA3", "GPipe equal-budget throughput optimum", appendixA3},
		{"fig1", "Pipelining modes (ASCII schedule)", fig1},
		{"fig10", "Incremental techniques at 1x stages", fig10},
		{"fig11", "Deeper model (ResNet152-like): T1 vs T1+T2", fig11},
		{"fig12", "Sensitivity to annealing epochs (T1 K)", fig12},
		{"fig13", "Sensitivity to discrepancy-correction decay D", fig13},
		{"fig14", "Sensitivity to warmup epochs (T3)", fig14},
		{"fig15", "Impact of pipeline stages (classification)", fig15},
		{"fig16", "Recompute quadratic model eigenvalues", fig16},
		{"fig17", "Recompute statistical performance (classification)", fig17},
		{"fig18", "Recompute statistical performance (translation)", fig18},
		{"fig19", "Hogwild!-style asynchrony with and without T1", fig19},
		{"fig2", "Impact of pipeline stages (translation)", fig2},
		{"fig3a", "Quadratic model divergence vs delay", fig3a},
		{"fig3b", "Step size × delay heatmap for delayed linear regression", fig3b},
		{"fig4", "Incremental techniques at 2x stages", fig4},
		{"fig5a", "Quadratic model divergence vs discrepancy sensitivity", fig5a},
		{"fig5b", "Largest eigenvalue vs step size, with/without T2", fig5b},
		{"fig6", "Per-stage activation footprint of PipeMare Recompute", fig6},
		{"fig7", "Divergence analysis: parameter norms and delay discrepancy", fig7},
		{"fig8", "Largest stable step size vs ∆, original vs T2", fig8},
		{"fig9", "ImageNet-like and WMT-like training curves", fig9},
		{"table1", "Characterization of pipeline parallel training methods", table1},
		{"table2", "End-to-end comparison (best metric, speedup, epochs, throughput, memory)", table2},
		{"table3", "Ablation study of PipeMare techniques", table3},
		{"table4", "Activation memory with/without PipeMare Recompute (P=L)", table4},
		{"table5", "Activation memory of PipeMare across tasks", table5},
	}
}

// lookup finds an experiment by name.
func lookup(name string) (experiment, bool) {
	for _, e := range experimentList() {
		if e.Name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(width) {
				fmt.Fprintf(w, "%-*s  ", width[i], c)
			} else {
				fmt.Fprintf(w, "%s  ", c)
			}
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// fnum renders a float compactly for table cells.
func fnum(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
}
