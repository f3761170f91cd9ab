package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON(specFile, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func quickConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, seconds: 1, quick: true, timed: true, layers: true, scratch: t.TempDir()}
}

// TestDeclarationsMatchSpec keeps the Go tables and BENCHMARK.json equal
// without running anything: names, units, order, and the contract's
// limits on names and counts.
func TestDeclarationsMatchSpec(t *testing.T) {
	sp := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	ws := workloads()
	if len(sp.Workloads) != len(ws) || len(ws) < 2 || len(ws) > 8 {
		t.Fatalf("%d workloads declared, %d built, want equal and 2..8", len(sp.Workloads), len(ws))
	}
	for i, w := range ws {
		d := sp.Workloads[i]
		if d.Name != w.name || !name.MatchString(d.Name) {
			t.Errorf("workload %d: declared %q, built %q", i, d.Name, w.name)
		}
		if d.Why == "" || len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", d.Name, len(d.Why))
		}
	}

	check := func(kind string, declared []specMetric, built []metricDef, limit int, bounded bool) {
		if len(declared) != len(built) || len(built) < 1 || len(built) > limit {
			t.Fatalf("%s: %d declared, %d built, want equal and 1..%d", kind, len(declared), len(built), limit)
		}
		for i, b := range built {
			d := declared[i]
			if d.Name != b.name || d.Unit != b.unit {
				t.Errorf("%s %d: declared %s [%s], built %s [%s]", kind, i, d.Name, d.Unit, b.name, b.unit)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s %s [%s]: name or unit outside the allowed characters", kind, d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.Name, d.Better)
			}
			if bounded && !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
			if !bounded && d.Bound != 0 {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, 16, true)
	check("per_layer", sp.PerLayer, perLayer, 128, false)

	seen := map[string]bool{}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if seen[m.Name] {
				t.Errorf("name %s used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	widest := 0.0
	for _, m := range sp.EndToEnd {
		widest = max(widest, m.Bound)
	}
	if sp.EndToEnd[0].Name != "setup_s" || sp.EndToEnd[0].Bound != widest {
		t.Errorf("setup_s must be declared, with the largest bound")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 || len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", sp.RunSeconds, sp.Paths)
	}
}

// TestQuickRunEmitsEveryDeclaredMetric runs every workload in quick mode,
// both passes, and requires exactly the declared metrics, no failed
// operation, and end-to-end values that are never zero.
func TestQuickRunEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload for a few epochs")
	}
	sp := readSpec(t)
	declared := map[string]string{}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			declared[m.Name] = m.Unit
		}
	}
	spans := newSpanRecorder()
	for _, w := range workloads() {
		rr, err := runWorkload(&w, quickConfig(t, 1), spans)
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Correct || rr.OpsFailed != 0 || rr.OpsAttempted != 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.name, rr.Correct, rr.OpsAttempted, rr.OpsFailed, rr.Failures)
		}
		if len(rr.Metrics) != len(declared) || len(rr.names) != len(declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", w.name, len(rr.Metrics), len(declared))
		}
		for name, v := range rr.Metrics {
			if u, ok := declared[name]; !ok || u != v.Unit {
				t.Errorf("%s: emitted %s [%s], declared unit %q", w.name, name, v.Unit, u)
			}
		}
		for _, m := range sp.EndToEnd {
			if v := rr.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v", w.name, m.Name, v)
			}
		}
		if v := rr.Metrics["trace.dropped_events"].Value; v != 0 {
			t.Errorf("%s: %v trace events dropped", w.name, v)
		}
		if w.checkpoint != (rr.Metrics["core.ckpt_stall_frac"].Value > 0) {
			t.Errorf("%s: ckpt_stall_frac = %v", w.name, rr.Metrics["core.ckpt_stall_frac"].Value)
		}
		if w.wire != (rr.Metrics["replica.bytes_per_step"].Value > 0) {
			t.Errorf("%s: replica.bytes_per_step = %v", w.name, rr.Metrics["replica.bytes_per_step"].Value)
		}
	}
	// Every phase of every workload is under a span of the benchmark's own.
	phases := map[string]bool{}
	for _, p := range spans.totals() {
		phases[p.Name] = true
	}
	for _, want := range []string{"run", "setup", "epoch", "verify", "verify-restore", "probes", "traced-pass", "traced-epoch", "tensor.MatMulInto"} {
		if !phases[want] {
			t.Errorf("no span named %s recorded", want)
		}
	}
}

// TestSeedPlumbing: the seed reaches the program (two seeds, two curves)
// and is all that varies (one seed, one curve, one live heap).
func TestSeedPlumbing(t *testing.T) {
	w := workloads()[3] // resmlp-fine: a tenth of a second per epoch
	run := func(seed int64) *runResult {
		t.Helper()
		cfg := quickConfig(t, seed)
		cfg.layers = false
		rr, err := runWorkload(&w, cfg, newSpanRecorder())
		if err != nil || !rr.Correct {
			t.Fatalf("seed %d: %v %v", seed, err, rr.Failures)
		}
		return rr
	}
	a, b, c := run(1), run(1), run(2)
	if len(a.Losses) != 3 {
		t.Fatalf("curve has %d epochs, want warm-up + 2", len(a.Losses))
	}
	for i := range a.Losses {
		if math.Float64bits(a.Losses[i]) != math.Float64bits(b.Losses[i]) {
			t.Errorf("same seed, epoch %d: %v vs %v", i+1, a.Losses[i], b.Losses[i])
		}
	}
	if a.Losses[0] == c.Losses[0] && a.Losses[1] == c.Losses[1] {
		t.Errorf("seeds 1 and 2 trained the same curve %v", a.Losses)
	}
	ha, hb := a.Metrics["live_heap_mb"].Value, b.Metrics["live_heap_mb"].Value
	if math.Abs(ha-hb)/ha > 0.01 {
		t.Errorf("live_heap_mb %v vs %v on the same seed: more than 1%% apart", ha, hb)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "t", Better: "lower", Bound: 0.08}
	higher := specMetric{Name: "r", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		m                    specMetric
		base, change, spread float64
		want                 string
	}{
		{lower, 10, 10.7, 0.02, "ok"},
		{lower, 10, 10.9, 0.02, "regressed"},
		{lower, 10, 5, 0.02, "ok"}, // better is never a regression
		{higher, 100, 93, 0.02, "ok"},
		{higher, 100, 91, 0.02, "regressed"},
		{higher, 100, 150, 0.02, "ok"},
		{lower, 10, 10, 0.09, "unresolved"}, // noise wider than the bound
		{lower, 10, 20, 0.09, "unresolved"},
		{specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, 10, 12, 0.6, "ok"}, // judged on medians only
		{specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, 10, 13, 0.6, "regressed"},
	} {
		if got := verdict(c.m, c.base, c.change, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v → %v, spread %v) = %s, want %s", c.m.Better, c.base, c.change, c.spread, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	sp := readSpec(t)
	// Two sets of three runs per workload; the change halves one
	// workload's throughput and leaves the rest alone.
	set := func(slow string) results {
		var res results
		for _, w := range sp.Workloads {
			for k := 0; k < 3; k++ {
				rr := &runResult{Workload: w.Name, Seed: int64(k + 1), Correct: true, Metrics: map[string]metric{}}
				for _, m := range sp.EndToEnd {
					v := 100 + float64(k)
					if m.Name == "samples_per_s" && w.Name == slow {
						v /= 2
					}
					rr.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
				}
				res.Runs = append(res.Runs, rr)
			}
		}
		return res
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeResults(a, set("")); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(b, set("xfmr-ckpt")); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := compareFiles(&out, specFile, a, a); err != nil {
		t.Errorf("a file against itself: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 1+len(sp.EndToEnd)*len(sp.Workloads) {
		t.Errorf("%d lines, want a header and one row per (metric, workload):\n%s", n, out.String())
	}

	out.Reset()
	if err := compareFiles(&out, specFile, a, b); err != errChecksFailed {
		t.Errorf("halved throughput: err = %v", err)
	}
	regressed := 0
	for _, row := range strings.Split(out.String(), "\n") {
		if strings.HasSuffix(row, "regressed") {
			regressed++
			if !strings.Contains(row, "samples_per_s") || !strings.Contains(row, "xfmr-ckpt") || !strings.Contains(row, "0.5000 of 101") {
				t.Errorf("unexpected regressed row: %s", row)
			}
		}
	}
	if regressed != 1 {
		t.Errorf("%d regressed rows, want 1:\n%s", regressed, out.String())
	}

	if err := compareFiles(&out, specFile, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("missing file: err = %v", err)
	}
}
