// Package experiments regenerates every table and figure of the PipeMare
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// experiment writes the same rows/series the paper reports to an
// io.Writer; DNN experiments accept a Scale to trade fidelity for time.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Scale selects experiment fidelity: Quick shrinks epochs and sweep grids
// for CI-friendly runs; Full uses the DESIGN.md reference settings.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// Experiment is a registered table/figure regenerator.
type Experiment struct {
	Name  string
	Title string
	Run   func(w io.Writer, s Scale)
}

var registry []Experiment

func register(name, title string, run func(w io.Writer, s Scale)) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// All returns every registered experiment sorted by name.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
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
