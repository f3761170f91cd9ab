package main

import (
	"fmt"
	"io"
	"math"

	"pipemare/internal/core"
	"pipemare/internal/experiments"
	"pipemare/internal/metrics"
)

// table2 regenerates Table 2: PipeDream vs GPipe vs PipeMare on all four
// workloads (the CIFAR and IWSLT substitutes only at quick scale).
func table2(w io.Writer, c *config) {
	workloads := []experiments.Workload{experiments.CIFARLike(), experiments.IWSLTLike()}
	if c.full {
		workloads = []experiments.Workload{experiments.CIFARLike(), experiments.ImageNetLike(), experiments.IWSLTLike(), experiments.WMTLike()}
	}
	fmt.Fprintln(w, "Table 2: end-to-end comparison")
	for _, wl := range workloads {
		epochs := c.scaleEpochs(wl.Epochs)
		gp := c.train(wl, runSpec{Method: core.GPipe, Epochs: epochs, Seed: 11})
		pd := c.train(wl, runSpec{Method: core.PipeDream, Epochs: epochs, Seed: 11})
		pm := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, UseT3: true, WarmupEpochs: -1, Epochs: epochs, Seed: 11})
		target := paperTarget(wl, gp, pd, pm)
		gpTime := gp.timeTo(target, core.GPipe, 0)
		fmt.Fprintf(w, "\n%s  [%s]  stages=%d N=%d target=%.1f\n", wl.Name, wl.Paper, pm.Stages, pm.N, target)
		tb := newTable("Method", "Best", "Target", "Speedup", "EpochsToTgt", "Throughput", "Weight+Opt Mem", "Ring copies")
		row := func(name string, r runResult, m core.Method, warm int) {
			e := r.Run.EpochsToTarget(target)
			tt := r.timeTo(target, m, warm)
			speed := metrics.Speedup(gpTime, tt)
			es, ss := "-", "-"
			if e > 0 {
				es = fmt.Sprint(e)
			}
			if !math.IsInf(tt, 1) && speed > 0 {
				ss = fmt.Sprintf("%.1fX", speed)
			}
			best := fmt.Sprintf("%.1f", r.Run.Best())
			if r.Run.Diverged {
				best += " (div)"
			}
			tb.add(name, best, fmt.Sprintf("%.1f", target), ss, es,
				fmt.Sprintf("%.2fX", r.Throughput), fmt.Sprintf("%.2fX", r.MemRatio), fmt.Sprintf("%.2f", r.RingCopies))
		}
		row("PipeDream", pd, core.PipeDream, 0)
		row("GPipe", gp, core.GPipe, 0)
		row("PipeMare", pm, core.PipeMare, wl.WarmupEpochs)
		tb.write(w)
	}
}

// table3 regenerates the Table 3 ablation on the classification and
// translation workloads.
func table3(w io.Writer, c *config) {
	fmt.Fprintln(w, "Table 3: ablation study of PipeMare")
	type abl struct {
		name       string
		t1, t2, t3 bool
	}
	run := func(wl experiments.Workload, rows []abl) {
		epochs := c.scaleEpochs(wl.Epochs)
		gp := c.train(wl, runSpec{Method: core.GPipe, Epochs: epochs, Seed: 11})
		results := make([]runResult, len(rows))
		for i, a := range rows {
			results[i] = c.train(wl, runSpec{Method: core.PipeMare, UseT1: a.t1, UseT2: a.t2, UseT3: a.t3,
				WarmupEpochs: -1, Epochs: epochs, Seed: 11})
		}
		all := append([]runResult{gp}, results...)
		target := paperTarget(wl, all...)
		gpTime := gp.timeTo(target, core.GPipe, 0)
		fmt.Fprintf(w, "\n%s  target=%.1f (GPipe best %.1f)\n", wl.Name, target, gp.Run.Best())
		tb := newTable("Method", "Best", "Speedup", "EpochsToTgt", "Throughput", "Weight+Opt Mem", "Ring copies")
		for i, a := range rows {
			r := results[i]
			e := r.Run.EpochsToTarget(target)
			warm := 0
			if a.t3 {
				warm = wl.WarmupEpochs
			}
			tt := r.timeTo(target, core.PipeMare, warm)
			es, ss := "-", "-"
			if e > 0 {
				es = fmt.Sprint(e)
			}
			if sp := metrics.Speedup(gpTime, tt); sp > 0 {
				ss = fmt.Sprintf("%.1fX", sp)
			}
			best := fmt.Sprintf("%.1f", r.Run.Best())
			if r.Run.Diverged {
				best += " (div)"
			}
			tb.add(a.name, best, ss, es, fmt.Sprintf("%.2fX", r.Throughput), fmt.Sprintf("%.2fX", r.MemRatio), fmt.Sprintf("%.2f", r.RingCopies))
		}
		tb.write(w)
	}
	run(experiments.CIFARLike(), []abl{
		{"T1 only", true, false, false},
		{"T2 only", false, true, false},
		{"T1+T2", true, true, false},
	})
	run(experiments.IWSLTLike(), []abl{
		{"T1 only", true, false, false},
		{"T2 only", false, true, false},
		{"T1+T2", true, true, false},
		{"T1+T2+T3", true, true, true},
	})
}

// ablationCurves prints the per-epoch metric for Sync / T1 / T1+T2 /
// T1+T2+T3 — the Figure 4 and Figure 10 series.
func ablationCurves(w io.Writer, c *config, wl experiments.Workload, stages int, label string) {
	epochs := c.scaleEpochs(wl.Epochs)
	specs := []struct {
		name       string
		method     core.Method
		t1, t2, t3 bool
	}{
		{"Sync", core.GPipe, false, false, false},
		{"T1", core.PipeMare, true, false, false},
		{"T1+T2", core.PipeMare, true, true, false},
		{"T1+T2+T3", core.PipeMare, true, true, true},
	}
	results := make([]runResult, len(specs))
	for i, sp := range specs {
		results[i] = c.train(wl, runSpec{Method: sp.method, Stages: stages, UseT1: sp.t1, UseT2: sp.t2,
			UseT3: sp.t3, WarmupEpochs: -1, Epochs: epochs, Seed: 11})
	}
	fmt.Fprintf(w, "\n%s (%s, stages=%d)\n", label, wl.Name, results[0].Stages)
	tb := newTable("Epoch", specs[0].name, specs[1].name, specs[2].name, specs[3].name)
	step := epochs / 6
	if step < 1 {
		step = 1
	}
	for e := step - 1; e < epochs; e += step {
		row := []any{e + 1}
		for _, r := range results {
			if e < r.Run.Epochs() {
				row = append(row, fmt.Sprintf("%.1f", r.Run.Metric[e]))
			} else {
				row = append(row, "div")
			}
		}
		tb.add(row...)
	}
	tb.write(w)
	tb2 := newTable("Variant", "Best", "Diverged")
	for i, sp := range specs {
		tb2.add(sp.name, fmt.Sprintf("%.1f", results[i].Run.Best()), results[i].Run.Diverged)
	}
	tb2.write(w)
}

// fig4 runs the ablation at ~2× the fine-grained stage count.
func fig4(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 4: incremental PipeMare techniques at 2x stages")
	wl := experiments.CIFARLike()
	wl.NewTask = doubleDepthClassifier
	wl.T1K = wl.T1K * 2
	ablationCurves(w, c, wl, 0, "classification, 213 weight groups")
	if c.full {
		ablationCurves(w, c, experiments.IWSLTLike(), 0, "translation, all weight groups")
	}
}

// fig10 runs the ablation at the default (1×) stage counts.
func fig10(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 10: incremental PipeMare techniques at 1x stages")
	ablationCurves(w, c, experiments.CIFARLike(), 0, "classification")
	if c.full {
		ablationCurves(w, c, experiments.IWSLTLike(), 0, "translation")
	}
}

// fig7 regenerates the divergence probes: parameter norm and accuracy for
// asynchronous training with and without forward/backward discrepancy.
func fig7(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 7: divergence analysis (parameter norm, accuracy)")
	wl := experiments.CIFARLike()
	epochs := c.scaleEpochs(40)
	specs := []struct {
		name   string
		method core.Method
		deep   bool
	}{
		{"Sync", core.GPipe, false},
		{"tau_f != tau_b, 107 stages (PipeMare raw)", core.PipeMare, false},
		{"tau_f = tau_b, 107 stages (PipeDream)", core.PipeDream, false},
		{"tau_f = tau_b, 213 stages (PipeDream deep)", core.PipeDream, true},
	}
	tb := newTable("Run", "norm@5", "norm@end", "best acc", "diverged")
	for _, sp := range specs {
		w2 := wl
		if sp.deep {
			w2.NewTask = doubleDepthClassifier
		}
		r := c.train(w2, runSpec{Method: sp.method, Epochs: epochs, Seed: 7})
		n := r.Run.ParamNorm
		idx5 := 4
		if idx5 >= len(n) {
			idx5 = len(n) - 1
		}
		tb.add(sp.name, fmt.Sprintf("%.3g", n[idx5]), fmt.Sprintf("%.3g", n[len(n)-1]),
			fmt.Sprintf("%.1f", r.Run.Best()), r.Run.Diverged || n[len(n)-1] > 1e6)
	}
	tb.write(w)
	fmt.Fprintln(w, "Raw asynchrony blows up the parameter norm; discrepancy (tau_f != tau_b) accelerates it,")
	fmt.Fprintln(w, "and even discrepancy-free delay (PipeDream) degrades when the stage count doubles.")
}

// doubleDepthClassifier doubles the residual-block count of the
// classification workload (213 weight groups).
func doubleDepthClassifier(seed int64) core.Task { return classifierWithBlocks(105, seed) }

// fig9 prints the larger-workload curves for Sync / PipeDream / PipeMare.
func fig9(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 9: ImageNet-like and WMT-like training curves")
	workloads := []experiments.Workload{experiments.ImageNetLike()}
	if c.full {
		workloads = append(workloads, experiments.WMTLike())
	}
	for _, wl := range workloads {
		epochs := c.scaleEpochs(wl.Epochs)
		gp := c.train(wl, runSpec{Method: core.GPipe, Epochs: epochs, Seed: 11})
		pd := c.train(wl, runSpec{Method: core.PipeDream, Epochs: epochs, Seed: 11})
		pm := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, UseT3: true,
			WarmupEpochs: -1, Epochs: epochs, Seed: 11})
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		tb := newTable("Epoch", "Sync", "PipeDream", "PipeMare")
		step := epochs / 6
		if step < 1 {
			step = 1
		}
		for e := step - 1; e < epochs; e += step {
			row := []any{e + 1}
			for _, r := range []runResult{gp, pd, pm} {
				if e < r.Run.Epochs() {
					row = append(row, fmt.Sprintf("%.1f", r.Run.Metric[e]))
				} else {
					row = append(row, "div")
				}
			}
			tb.add(row...)
		}
		tb.write(w)
	}
}

// fig11 contrasts T1-only and T1+T2 on a ~151-group model.
func fig11(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 11: deeper classifier (151 weight groups): T1 only vs T1+T2")
	wl := experiments.CIFARLike()
	wl.NewTask = func(seed int64) core.Task { return classifierWithBlocks(74, seed) }
	epochs := c.scaleEpochs(wl.Epochs)
	t1 := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, Epochs: epochs, Seed: 11})
	t12 := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, Epochs: epochs, Seed: 11})
	tb := newTable("Variant", "Best", "Final norm", "Diverged")
	for _, r := range []struct {
		name string
		r    runResult
	}{{"T1 only", t1}, {"T1+T2 (D=0.5)", t12}} {
		n := r.r.Run.ParamNorm
		tb.add(r.name, fmt.Sprintf("%.1f", r.r.Run.Best()), fmt.Sprintf("%.3g", n[len(n)-1]),
			r.r.Run.Diverged || n[len(n)-1] > 1e6)
	}
	tb.write(w)
}

// fig12 sweeps the T1 annealing length.
func fig12(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 12: sensitivity to the number of annealing steps K (classification)")
	wl := experiments.CIFARLike()
	epochs := c.scaleEpochs(wl.Epochs)
	perEpoch := 16
	tb := newTable("K (epochs)", "Best", "Final", "Diverged/blown")
	for _, kEpochs := range []int{5, 20, 30, 60} {
		w2 := wl
		w2.T1K = kEpochs * perEpoch
		r := c.train(w2, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, Epochs: epochs, Seed: 11})
		n := r.Run.ParamNorm
		last := "-"
		if !r.Run.Diverged {
			last = fmt.Sprintf("%.1f", r.Run.Metric[r.Run.Epochs()-1])
		}
		tb.add(kEpochs, fmt.Sprintf("%.1f", r.Run.Best()), last, r.Run.Diverged || n[len(n)-1] > 1e6)
	}
	tb.write(w)
}

// fig13 sweeps the discrepancy-correction decay D, including D=0 (T1 only).
func fig13(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 13: sensitivity to correction decay D (classification)")
	wl := experiments.CIFARLike()
	epochs := c.scaleEpochs(wl.Epochs)
	tb := newTable("D", "Best", "Final", "Diverged/blown")
	for _, d := range []float64{0, 0.2, 0.5, 0.7} {
		w2 := wl
		w2.T2D = d
		r := c.train(w2, runSpec{Method: core.PipeMare, UseT1: true, UseT2: d > 0, Epochs: epochs, Seed: 11})
		n := r.Run.ParamNorm
		last := "-"
		if !r.Run.Diverged {
			last = fmt.Sprintf("%.1f", r.Run.Metric[r.Run.Epochs()-1])
		}
		tb.add(fnum(d), fmt.Sprintf("%.1f", r.Run.Best()), last, r.Run.Diverged || n[len(n)-1] > 1e6)
	}
	tb.write(w)
}

// fig14 sweeps the number of synchronous warmup epochs on the translation
// workload (T3's tradeoff).
func fig14(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 14: sensitivity to warmup epochs (translation)")
	wl := experiments.IWSLTLike()
	epochs := c.scaleEpochs(wl.Epochs)
	tb := newTable("Warmup epochs", "Best", "EpochsToTgt(best-0.4)", "Amortized throughput")
	runs := []runResult{}
	warms := []int{3, 5, 10}
	for _, m := range warms {
		r := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: true, UseT3: true,
			WarmupEpochs: m, Epochs: epochs, Seed: 11})
		runs = append(runs, r)
	}
	target := paperTarget(wl, runs...)
	for i, m := range warms {
		r := runs[i]
		e := r.Run.EpochsToTarget(target)
		es := "-"
		if e > 0 {
			es = fmt.Sprint(e)
		}
		tb.add(m, fmt.Sprintf("%.1f", r.Run.Best()), es, fmt.Sprintf("%.2f", r.Throughput))
	}
	tb.write(w)
}

// stageSweep produces the four panels of Figures 2 and 15: normalized
// throughput, weight+optimizer memory, best metric, and time-to-target as
// the stage count varies.
func stageSweep(w io.Writer, c *config, wl experiments.Workload, stages []int, label string) {
	fmt.Fprintf(w, "%s\n", label)
	epochs := c.scaleEpochs(wl.Epochs)
	type row struct {
		p                   int
		thrGP, thrPM        float64
		memGP, memPD, memPM float64
		bestPM              float64
		ttGP, ttPM          float64
	}
	var rows []row
	for _, p := range stages {
		gp := c.train(wl, runSpec{Method: core.GPipe, Stages: p, Epochs: epochs, Seed: 11})
		pd := c.train(wl, runSpec{Method: core.PipeDream, Stages: p, Epochs: epochs, Seed: 11})
		pm := c.train(wl, runSpec{Method: core.PipeMare, Stages: p, UseT1: true, UseT2: true, UseT3: true,
			WarmupEpochs: -1, Epochs: epochs, Seed: 11})
		target := paperTarget(wl, gp, pd, pm)
		rows = append(rows, row{
			p: p,
			// Absolute throughput grows with P for bubble-free methods
			// (more parallel stages); GPipe pays the bubble factor.
			thrGP: float64(p) * 0.3,
			thrPM: float64(p) * pm.Throughput,
			memGP: gp.MemRatio, memPD: pd.MemRatio, memPM: pm.MemRatio,
			bestPM: pm.Run.Best(),
			ttGP:   gp.timeTo(target, core.GPipe, 0),
			ttPM:   pm.timeTo(target, core.PipeMare, wl.WarmupEpochs),
		})
	}
	tb := newTable("Stages", "Thr GPipe", "Thr PipeMare", "Mem GPipe", "Mem PipeDream", "Mem PipeMare",
		"Best PipeMare", "TimeToTgt GPipe", "TimeToTgt PipeMare")
	for _, r := range rows {
		tt1, tt2 := "Inf", "Inf"
		if !math.IsInf(r.ttGP, 1) {
			tt1 = fmt.Sprintf("%.0f", r.ttGP)
		}
		if !math.IsInf(r.ttPM, 1) {
			tt2 = fmt.Sprintf("%.0f", r.ttPM)
		}
		tb.add(r.p, fmt.Sprintf("%.1f", r.thrGP), fmt.Sprintf("%.1f", r.thrPM),
			fmt.Sprintf("%.2fX", r.memGP), fmt.Sprintf("%.2fX", r.memPD), fmt.Sprintf("%.2fX", r.memPM),
			fmt.Sprintf("%.1f", r.bestPM), tt1, tt2)
	}
	tb.write(w)
}

// fig2 is the translation stage sweep.
func fig2(w io.Writer, c *config) {
	stages := []int{12, 24, 48}
	if !c.full {
		stages = []int{12, 48}
	}
	stageSweep(w, c, experiments.IWSLTLike(), stages, "Figure 2: translation workload vs pipeline stages")
}

// fig15 is the classification stage sweep.
func fig15(w io.Writer, c *config) {
	stages := []int{20, 53, 107}
	if !c.full {
		stages = []int{20, 107}
	}
	stageSweep(w, c, experiments.CIFARLike(), stages, "Figure 15: classification workload vs pipeline stages")
}

// recomputeCurves runs PipeMare with the recompute delay path for several
// checkpoint-segment counts.
func recomputeCurves(w io.Writer, c *config, wl experiments.Workload, segs []int, withT2 bool, label string) {
	epochs := c.scaleEpochs(wl.Epochs)
	fmt.Fprintf(w, "\n%s (T2=%v)\n", label, withT2)
	tb := newTable("Checkpoints", "Best", "Final", "Diverged/blown")
	for _, seg := range append([]int{0}, segs...) {
		r := c.train(wl, runSpec{Method: core.PipeMare, UseT1: true, UseT2: withT2,
			Recompute: seg, Epochs: epochs, Seed: 11})
		name := "no recompute"
		if seg > 0 {
			name = fmt.Sprintf("%d segments", seg)
		}
		n := r.Run.ParamNorm
		last := "-"
		if !r.Run.Diverged {
			last = fmt.Sprintf("%.1f", r.Run.Metric[r.Run.Epochs()-1])
		}
		tb.add(name, fmt.Sprintf("%.1f", r.Run.Best()), last, r.Run.Diverged || n[len(n)-1] > 1e6)
	}
	tb.write(w)
}

// fig17 is the classification recompute study.
func fig17(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 17: recompute on the classification workload")
	wl := experiments.CIFARLike()
	segs := []int{2, 4, 17}
	if !c.full {
		segs = []int{4}
	}
	recomputeCurves(w, c, wl, segs, false, "T1 only")
	recomputeCurves(w, c, wl, segs, true, "T1+T2")
}

// fig18 is the translation recompute study.
func fig18(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 18: recompute on the translation workload")
	wl := experiments.IWSLTLike()
	segs := []int{2, 12}
	if !c.full {
		segs = []int{4}
	}
	recomputeCurves(w, c, wl, segs, true, "T1+T2")
	if c.full {
		recomputeCurves(w, c, wl, segs, false, "T1 only")
	}
}
