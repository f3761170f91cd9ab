package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is ../BENCHMARK.json, the benchmark's declaration.
type spec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median it may worsen by
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one (end-to-end metric, workload) pair: base and change
// are the medians of the two sets of runs, spread the wider of their
// quartile spreads. A spread wider than the bound cannot tell a
// regression from noise, so it is unresolved, never ok — except for
// setup_s, which the driver too holds to its medians only: a set-up
// happens a few times per run, not dozens, and its spread says little.
func verdict(m specMetric, base, change, spread float64) string {
	worse := (change - base) / base
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > m.Bound && m.Name != "setup_s":
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (end-to-end metric, workload): both
// medians, the ratio with its base, the spread, and the verdict under the
// bounds in the spec. It returns errChecksFailed unless every row is ok.
func compareFiles(w io.Writer, specPath, basePath, changePath string) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	var base, change results
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(changePath, &change); err != nil {
		return err
	}
	values := func(res results, workload, name string) []float64 {
		var vals []float64
		for _, run := range res.Runs {
			if v, ok := run.Metrics[name]; ok && run.Workload == workload {
				vals = append(vals, v.Value)
			}
		}
		return vals
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tworkload\tbase median (n)\tchange median (n)\tchange/base\tspread\tbound\tverdict\n")
	allOK := true
	for _, m := range sp.EndToEnd {
		for _, wl := range sp.Workloads {
			a, b := values(base, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t%.2f\tunresolved (missing)\n", m.Name, wl.Name, m.Bound)
				allOK = false
				continue
			}
			ma, mb := median(a), median(b)
			spread := max(quartileSpread(a), quartileSpread(b))
			v := verdict(m, ma, mb, spread)
			allOK = allOK && v == "ok"
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (%d)\t%.6g %s (%d)\t%.4f of %.6g\t%.4f\t%.2f\t%s\n",
				m.Name, wl.Name, ma, m.Unit, len(a), mb, m.Unit, len(b), mb/ma, ma, spread, m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if !allOK {
		return errChecksFailed
	}
	return nil
}
