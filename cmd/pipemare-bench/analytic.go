package main

import (
	"fmt"
	"io"
	"math"

	"pipemare/internal/data"
	"pipemare/internal/memmodel"
	"pipemare/internal/pipeline"
	"pipemare/internal/poly"
	"pipemare/internal/quad"
	"pipemare/internal/throughput"
)

// table1 prints Table 1 both symbolically and at the paper's reference
// geometry (first stage, P = 107, N = 8).
func table1(w io.Writer, _ *config) {
	fmt.Fprintln(w, "Table 1: delays, throughput and weight memory (first stage i=1)")
	p, n := 107, 8
	tb := newTable("Method", "tau_fwd", "tau_bkwd", "Throughput", "WeightsMem")
	tauFwd := pipeline.FwdDelay(1, p, n)
	tb.add("PipeDream", fnum(tauFwd), fnum(tauFwd), fnum(throughput.Table1BubbleFree()), fmt.Sprintf("W x %s", fnum(float64(p)/float64(n))))
	tb.add("GPipe", "0", "0", fnum(throughput.Table1GPipe(p, n)), "W")
	tb.add("PipeMare", fnum(tauFwd), "0", fnum(throughput.Table1BubbleFree()), "W")
	tb.write(w)
	fmt.Fprintf(w, "\nper-stage tau_fwd = (2(P-i)+1)/N at P=%d, N=%d: stage 1 -> %.3f, stage P -> %.3f\n",
		p, n, pipeline.FwdDelay(1, p, n), pipeline.FwdDelay(p, p, n))
}

// table4 prints the Table 4 asymptotic activation-memory entries at a
// reference fine-grained geometry.
func table4(w io.Writer, _ *config) {
	p, n := 107, 8
	fmt.Fprintf(w, "Table 4: activation memory in units of M (P=L=%d, N=%d)\n", p, n)
	tb := newTable("Mode", "No recompute", "With recompute")
	tb.add("GPipe", fmt.Sprintf("MPN = %.0f", memmodel.ActGPipe(p, n)), fmt.Sprintf("MPN^1/2 = %.0f", memmodel.ActGPipeRecompute(p, n)))
	tb.add("PipeMare/PipeDream", fmt.Sprintf("MP^2 = %.0f", memmodel.ActPipeMare(p)), fmt.Sprintf("MP^3/2 = %.0f", memmodel.ActPipeMareRecompute(p)))
	tb.write(w)
}

// table5 prints the Table 5 recompute ratios for the paper's stage counts.
func table5(w io.Writer, _ *config) {
	fmt.Fprintln(w, "Table 5: PipeMare activation memory with recompute (ratio = 1/sqrt(P))")
	tb := newTable("Dataset", "Stages", "No recompute", "With recompute")
	for _, c := range []struct {
		name string
		p    int
	}{{"CIFAR10", 107}, {"ImageNet", 107}, {"IWSLT14", 93}, {"WMT17", 91}} {
		tb.add(c.name, c.p, "1X", fmt.Sprintf("%.3fX", memmodel.RecomputeRatio(c.p)))
	}
	tb.write(w)
}

// fig1 renders the three pipelining modes of Figure 1 as ASCII schedules
// for a 3-stage pipeline.
func fig1(w io.Writer, _ *config) {
	fmt.Fprintln(w, "Figure 1: pipelining modes for P=3 (F=forward, B=backward, .=bubble)")
	fmt.Fprintln(w, "\n(a) Throughput-poor (GPipe, N=3: fill/drain bubbles at minibatch boundary)")
	fmt.Fprintln(w, "  stage1: F0 F1 F2 .  .  B0 B1 B2 | F3 ...")
	fmt.Fprintln(w, "  stage2: .  F0 F1 F2 .  .  B0 B1 | B2 ...")
	fmt.Fprintln(w, "  stage3: .  .  F0 F1 F2 B0 B1 B2 | .  ...")
	fmt.Fprintln(w, "\n(b) Memory-hungry (PipeDream: no bubbles, per-minibatch weight stash)")
	fmt.Fprintln(w, "  stage1: F0 F1 F2 F3 F4 F5 ...   stash w(t), w(t-1), ... per in-flight minibatch")
	fmt.Fprintln(w, "\n(c) PipeMare (no bubbles, single weight copy, asynchronous)")
	fmt.Fprintln(w, "  stage1: F0 F1 F2 F3 F4 F5 ...   forward on live (stale) weights, tau_bkwd = 0")
	// Quantify the bubble cost of (a) vs (c):
	tb := newTable("P", "N", "GPipe throughput", "PipeMare throughput")
	for _, p := range []int{3, 8, 47, 107} {
		tb.add(p, 8, fnum(throughput.Table1GPipe(p, 8)), "1.0")
	}
	fmt.Fprintln(w)
	tb.write(w)
}

// fig3a regenerates Figure 3(a): quadratic trajectories at λ=1, α=0.2 for
// τ ∈ {0, 5, 10}.
func fig3a(w io.Writer, _ *config) {
	fmt.Fprintln(w, "Figure 3a: quadratic model, lambda=1 alpha=0.2, noise N(0,1)")
	tb := newTable("tau", "loss@50", "loss@100", "loss@200", "diverged", "Lemma1 bound")
	for _, tau := range []int{0, 5, 10} {
		res := quad.Simulate(quad.Config{Lambda: 1, Alpha: 0.2, TauFwd: tau, NoiseStd: 1, Steps: 4000, Seed: 1, LossCap: 1e6})
		tb.add(tau, fnum(res.Loss[50]), fnum(res.Loss[100]), fnum(res.Loss[200]), res.Diverged, fnum(quad.Lemma1Bound(tau, 1)))
	}
	tb.write(w)
	fmt.Fprintln(w, "tau=10 exceeds its stability bound (0.2 > 0.149) and diverges; tau in {0,5} stay bounded.")
}

// fig3b regenerates Figure 3(b): final loss of fixed-delay full-batch
// gradient descent on a cpusmall-like linear regression over an (α, τ)
// grid, with the Lemma 1 boundary using the largest curvature.
func fig3b(w io.Writer, c *config) {
	lrg := data.NewRegression(200, 12, nil, 0.5, 7)
	lr := &quad.LinearRegression{X: lrg.X, Y: lrg.Y}
	lam := lr.MaxCurvature()
	steps := 20000
	taus := []int{1, 4, 16, 64, 256}
	if c.full {
		steps = 200000
		taus = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}
	}
	fmt.Fprintf(w, "Figure 3b: delayed GD on linear regression, lambda_max=%.3f (Inf = diverged)\n", lam)
	header := []string{"tau \\ alpha"}
	alphas := []float64{}
	for e := -12.0; e <= -2; e += 2 {
		alphas = append(alphas, math.Pow(2, e))
	}
	for _, a := range alphas {
		header = append(header, fmt.Sprintf("2^%d", int(math.Round(math.Log2(a)))))
	}
	header = append(header, "Lemma1 alpha*")
	tb := newTable(header...)
	for _, tau := range taus {
		row := []any{tau}
		for _, a := range alphas {
			l := lr.DelayedSGD(tau, a, steps, 0, 1e10, 1)
			if math.IsInf(l, 1) {
				row = append(row, "Inf")
			} else {
				row = append(row, fnum(l))
			}
		}
		row = append(row, fmt.Sprintf("%.2e", quad.Lemma1Bound(tau, lam)))
		tb.add(row...)
	}
	tb.write(w)
	fmt.Fprintln(w, "The divergence frontier tracks alpha* = (2/lambda_max) sin(pi/(4tau+2)) ~ 1/tau.")
}

// fig5a regenerates Figure 5(a): discrepancy-driven divergence at
// τf=10, τb=6, λ=1, α=0.12.
func fig5a(w io.Writer, _ *config) {
	fmt.Fprintln(w, "Figure 5a: quadratic model with tau_fwd=10, tau_bkwd=6, lambda=1, alpha=0.12")
	tb := newTable("Delta", "loss@100", "loss@200", "diverged")
	for _, delta := range []float64{0, 3, 5} {
		res := quad.Simulate(quad.Config{Lambda: 1, Alpha: 0.12, TauFwd: 10, TauBkwd: 6, Delta: delta,
			NoiseStd: 1, Steps: 2000, Seed: 2, LossCap: 1e6})
		tb.add(fnum(delta), fnum(res.Loss[100]), fnum(res.Loss[200]), res.Diverged)
	}
	tb.write(w)
	fmt.Fprintln(w, "Nonzero Delta can diverge at an alpha where Delta=0 converges (Lemma 2).")
}

// fig5b regenerates Figure 5(b): largest companion eigenvalue vs α for
// discrepancy with no correction, no discrepancy, and T2 correction.
func fig5b(w io.Writer, c *config) {
	tauF, tauB := 10, 6
	delta := 5.0
	d := 0.1
	gamma := quad.GammaFromD(d, float64(tauF), float64(tauB))
	alphas := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}
	if c.full {
		alphas = nil
		for a := 0.01; a <= 1.0; a *= 1.25 {
			alphas = append(alphas, a)
		}
	}
	fmt.Fprintf(w, "Figure 5b: spectral radius vs alpha (tau_fwd=%d, tau_bkwd=%d, Delta=%g, D=%g)\n", tauF, tauB, delta, d)
	tb := newTable("alpha", "discrepancy no corr", "no discrepancy", "T2 corrected")
	for _, a := range alphas {
		r1, _ := quad.CharPolyDiscrepancy(tauF, tauB, a, 1, delta).SpectralRadius()
		r2, _ := quad.CharPoly(tauF, a, 1).SpectralRadius()
		r3, _ := quad.CharPolyT2(tauF, tauB, a, 1, delta, gamma).SpectralRadius()
		tb.add(fnum(a), fnum(r1), fnum(r2), fnum(r3))
	}
	tb.write(w)
	fmt.Fprintln(w, "T2 pulls the largest eigenvalue toward the no-discrepancy curve.")
}

// fig6 regenerates Figure 6: per-stage cached activations with and without
// recompute, 16 stages in 4 segments.
func fig6(w io.Writer, _ *config) {
	p, s := 16, 4
	with := memmodel.StageActivationsRecompute(p, s)
	without := memmodel.StageActivations(p)
	fmt.Fprintf(w, "Figure 6: cached activations per stage (P=%d, segment=%d)\n", p, s)
	tb := newTable("Stage", "w/ recompute", "w/o recompute")
	totW, totWo := 0, 0
	for i := 0; i < p; i++ {
		tb.add(i, with[i], without[i])
		totW += with[i]
		totWo += without[i]
	}
	tb.add("total", totW, totWo)
	tb.write(w)
}

// fig8 regenerates Figure 8: largest stable α vs ∆ for the original and
// T2-corrected quadratic model at τf=40, τb=10.
func fig8(w io.Writer, c *config) {
	tauF, tauB := 40, 10
	gamma := quad.GammaTaylor(tauF, tauB)
	deltas := []float64{-100, -50, -10, 0, 10, 50, 100}
	if c.full {
		deltas = []float64{-100, -75, -50, -25, -10, -5, -1, 0, 1, 5, 10, 25, 50, 75, 100}
	}
	fmt.Fprintf(w, "Figure 8: largest stable alpha vs Delta (tau_fwd=%d, tau_bkwd=%d, gamma=%.3f)\n", tauF, tauB, gamma)
	tb := newTable("Delta", "original", "T2 corrected")
	for _, delta := range deltas {
		orig, err := quad.MaxStableAlpha(func(a float64) poly.Poly {
			return quad.CharPolyDiscrepancy(tauF, tauB, a, 1, delta)
		}, 2, 1e-6)
		if err != nil {
			fmt.Fprintf(w, "error at Delta=%g: %v\n", delta, err)
			continue
		}
		corr, err := quad.MaxStableAlpha(func(a float64) poly.Poly {
			return quad.CharPolyT2(tauF, tauB, a, 1, delta, gamma)
		}, 2, 1e-6)
		if err != nil {
			fmt.Fprintf(w, "error at Delta=%g: %v\n", delta, err)
			continue
		}
		tb.add(fnum(delta), fmt.Sprintf("%.5f", orig), fmt.Sprintf("%.5f", corr))
	}
	tb.write(w)
	fmt.Fprintln(w, "T2 enlarges the stable range for Delta >= 0 (and can shrink it for some Delta < 0).")
}

// fig16 regenerates Figure 16: spectral radius vs α for the recompute
// model with ∆=10, Φ=−5, τ=(10,4,1).
func fig16(w io.Writer, c *config) {
	tauF, tauB, tauR := 10, 1, 4
	delta, phi := 10.0, -5.0
	gamma := quad.GammaFromD(0.1, float64(tauF), float64(tauB))
	alphas := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
	if c.full {
		alphas = nil
		for a := 0.001; a <= 1.0; a *= 1.3 {
			alphas = append(alphas, a)
		}
	}
	fmt.Fprintf(w, "Figure 16: recompute model spectral radius (Delta=%g, Phi=%g, tau=(%d,%d,%d), D=0.1)\n",
		delta, phi, tauF, tauB, tauR)
	tb := newTable("alpha", "discrepancy no corr", "no discrepancy", "no recompute (Phi=0)", "T2 corrected")
	for _, a := range alphas {
		r1, _ := quad.CharPolyRecomputeNoCorrection(tauF, tauB, tauR, a, 1, delta, phi).SpectralRadius()
		r2, _ := quad.CharPoly(tauF, a, 1).SpectralRadius()
		r3, _ := quad.CharPolyDiscrepancy(tauF, tauB, a, 1, delta).SpectralRadius()
		r4, _ := quad.CharPolyRecompute(tauF, tauB, tauR, a, 1, delta, phi, gamma).SpectralRadius()
		tb.add(fnum(a), fnum(r1), fnum(r2), fnum(r3), fnum(r4))
	}
	tb.write(w)
}

// appendixA3 prints the equal-budget throughput analysis.
func appendixA3(w io.Writer, _ *config) {
	a1, t1 := throughput.GPipeOptimal()
	a2, t2 := throughput.GPipeOptimalRecompute()
	fmt.Fprintln(w, "Appendix A.3: GPipe throughput relative to PipeMare under equal budgets")
	tb := newTable("Variant", "optimal alpha", "max throughput", "paper")
	tb.add("plain", fnum(a1), fmt.Sprintf("%.4f", t1), "0.3")
	tb.add("with recompute", fnum(a2), fmt.Sprintf("%.4f", t2), "0.29")
	tb.write(w)
	fmt.Fprintln(w, "Note: the paper states the plain optimizer as alpha=sqrt(3/2); that point is outside")
	fmt.Fprintln(w, "its case-3 domain, and the true optimum of the stated model is 0.3 at alpha=3/2.")
}
