package quad

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"pipemare/internal/poly"
)

func TestCharPolyMatchesEquation4(t *testing.T) {
	// p(ω) = ω^{τ+1} − ω^τ + αλ evaluated directly.
	p := CharPoly(3, 0.1, 2.0)
	for _, w := range []complex128{1, -1, complex(0.5, 0.5), complex(0, 1)} {
		want := cmplx.Pow(w, 4) - cmplx.Pow(w, 3) + complex(0.2, 0)
		if got := p.Eval(w); cmplx.Abs(got-want) > 1e-12 {
			t.Fatalf("CharPoly(%v) = %v, want %v", w, got, want)
		}
	}
}

func TestCharPolyZeroDelayIsGradientDescent(t *testing.T) {
	// τ = 0: p(ω) = ω − 1 + αλ, root 1 − αλ; stable iff 0 < α < 2/λ.
	p := CharPoly(0, 0.5, 1.0)
	r, err := p.SpectralRadius()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("spectral radius = %g, want 0.5", r)
	}
}

func TestCharPolyMomentumReducesToPlain(t *testing.T) {
	pm := CharPolyMomentum(4, 0.1, 1.0, 0)
	pp := CharPoly(4, 0.1, 1.0)
	for _, w := range []complex128{1, complex(0.3, 0.7), -1} {
		if cmplx.Abs(pm.Eval(w)-pp.Eval(w)) > 1e-12 {
			t.Fatal("β=0 momentum polynomial must equal the plain polynomial")
		}
	}
}

func TestCharPolyDiscrepancyReducesToPlain(t *testing.T) {
	pd := CharPolyDiscrepancy(5, 2, 0.1, 1.0, 0)
	pp := CharPoly(5, 0.1, 1.0)
	for _, w := range []complex128{1, complex(0.3, 0.7), -1, complex(0, 1)} {
		if cmplx.Abs(pd.Eval(w)-pp.Eval(w)) > 1e-12 {
			t.Fatal("Δ=0 discrepancy polynomial must equal the plain polynomial")
		}
	}
}

func TestLemma1BoundMatchesExactThreshold(t *testing.T) {
	// Property: the numerically found max stable α equals the closed form
	// (2/λ)·sin(π/(4τ+2)) for a grid of delays and curvatures.
	// τ = 0 is plain SGD, whose threshold is 2/λ.
	for _, tau := range []int{0, 1, 2, 3, 5, 8, 13, 21, 34, 64} {
		for _, lambda := range []float64{0.5, 1.0, 3.0} {
			bound := Lemma1Bound(tau, lambda)
			got, err := MaxStableAlpha(func(a float64) poly.Poly {
				return CharPoly(tau, a, lambda)
			}, 4/lambda, 1e-7)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-bound) > 1e-4*bound {
				t.Errorf("τ=%d λ=%g: max stable α = %g, Lemma 1 bound = %g", tau, lambda, got, bound)
			}
		}
	}
}

func TestLemma1DoubleRoot(t *testing.T) {
	// At α from Lemma1DoubleRoot the polynomial has a double real root at
	// ω = τ/(τ+1): both p and p' vanish there.
	for _, tau := range []int{2, 5, 10, 20} {
		alpha, omega := Lemma1DoubleRoot(tau, 1.0)
		p := CharPoly(tau, alpha, 1.0)
		w := complex(omega, 0)
		if v := cmplx.Abs(p.Eval(w)); v > 1e-10 {
			t.Errorf("τ=%d: |p(ω*)| = %g", tau, v)
		}
		if v := cmplx.Abs(p.Derivative().Eval(w)); v > 1e-10 {
			t.Errorf("τ=%d: |p'(ω*)| = %g", tau, v)
		}
	}
}

func TestLemma2BoundUpperBoundsInstability(t *testing.T) {
	// Lemma 2: there exists an unstable α at or below the bound, i.e. the
	// first instability (max stable α) is ≤ the Lemma 2 bound.
	cases := []struct {
		tauFwd, tauBkwd int
		delta           float64
	}{
		{10, 6, 1}, {10, 6, 5}, {20, 5, 2}, {40, 10, 10}, {15, 0, 3},
	}
	for _, c := range cases {
		bound := Lemma2Bound(c.tauFwd, c.tauBkwd, 1.0, c.delta)
		got, err := MaxStableAlpha(func(a float64) poly.Poly {
			return CharPolyDiscrepancy(c.tauFwd, c.tauBkwd, a, 1.0, c.delta)
		}, 4, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		if got > bound*(1+1e-4) {
			t.Errorf("τf=%d τb=%d Δ=%g: max stable α = %g exceeds Lemma 2 bound %g", c.tauFwd, c.tauBkwd, c.delta, got, bound)
		}
	}
}

func TestLemma3BoundUpperBoundsMomentumInstability(t *testing.T) {
	// Lemma 3: for any β ∈ (0,1], an unstable α exists with
	// α ≤ (4/λ)·sin(π/(4τ+2)).
	for _, tau := range []int{3, 8, 16} {
		for _, beta := range []float64{0.1, 0.5, 0.9, 1.0} {
			bound := Lemma3Bound(tau, 1.0)
			got, err := MaxStableAlpha(func(a float64) poly.Poly {
				return CharPolyMomentum(tau, a, 1.0, beta)
			}, 8, 1e-7)
			if err != nil {
				t.Fatal(err)
			}
			if got > bound*(1+1e-4) {
				t.Errorf("τ=%d β=%g: max stable α = %g exceeds Lemma 3 bound %g", tau, beta, got, bound)
			}
		}
	}
}

func TestGammaFromDRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 0.01 + 0.9*rng.Float64()
		tf := float64(2 + rng.Intn(40))
		tb := float64(rng.Intn(int(tf)))
		g := GammaFromD(d, tf, tb)
		return math.Abs(math.Pow(g, tf-tb)-d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaTaylorApproachesDStar(t *testing.T) {
	// D = γ^{τf−τb} with γ = 1 − 2/(τf−τb+1) approaches e⁻² for large delay gaps.
	g := GammaTaylor(200, 0)
	d := math.Pow(g, 200)
	if math.Abs(d-DStar) > 5e-3 {
		t.Fatalf("implied D = %g, want ≈ %g", d, DStar)
	}
	if math.Abs(DStar-math.Exp(-2)) > 1e-15 {
		t.Fatalf("DStar constant = %g, want exp(-2)", DStar)
	}
}

func TestT2GammaCancelsDelta(t *testing.T) {
	// Appendix B.5: with γ = 1 − 2/(τf−τb+1), p(1), p'(1) and p''(1) of the
	// T2-corrected characteristic polynomial are all independent of Δ.
	tauFwd, tauBkwd := 17, 5
	alpha, lambda := 0.01, 1.3
	gamma := GammaTaylor(tauFwd, tauBkwd)
	eval2 := func(delta float64) (p0, p1, p2 complex128) {
		p := CharPolyT2(tauFwd, tauBkwd, alpha, lambda, delta, gamma)
		d1 := p.Derivative()
		d2 := d1.Derivative()
		return p.Eval(1), d1.Eval(1), d2.Eval(1)
	}
	a0, a1, a2 := eval2(0)
	b0, b1, b2 := eval2(25)
	if cmplx.Abs(a0-b0) > 1e-10 || cmplx.Abs(a1-b1) > 1e-10 {
		t.Fatalf("p(1), p'(1) must be Δ-independent for any γ: got %v vs %v, %v vs %v", a0, b0, a1, b1)
	}
	if cmplx.Abs(a2-b2) > 1e-8 {
		t.Fatalf("p''(1) not Δ-independent at Taylor γ: %v vs %v", a2, b2)
	}
	// And with a different γ the cancellation must fail.
	badGamma := gamma * 0.5
	p := CharPolyT2(tauFwd, tauBkwd, alpha, lambda, 0, badGamma)
	q := CharPolyT2(tauFwd, tauBkwd, alpha, lambda, 25, badGamma)
	if cmplx.Abs(p.Derivative().Derivative().Eval(1)-q.Derivative().Derivative().Eval(1)) < 1e-10 {
		t.Fatal("p''(1) unexpectedly Δ-independent for non-Taylor γ")
	}
	// Closed forms from the appendix: p(1) = αλ(1−γ), p'(1) = αλ + 1 − γ.
	wantP0 := complex(alpha*lambda*(1-gamma), 0)
	wantP1 := complex(alpha*lambda+1-gamma, 0)
	if cmplx.Abs(a0-wantP0) > 1e-10 || cmplx.Abs(a1-wantP1) > 1e-10 {
		t.Fatalf("closed forms violated: p(1)=%v want %v; p'(1)=%v want %v", a0, wantP0, a1, wantP1)
	}
}

func TestT2WidensStability(t *testing.T) {
	// Figure 8 claim: for Δ ≥ 0 the T2 correction (γ per eq. (15)) allows a
	// strictly larger stable step size than the uncorrected system.
	cases := []struct {
		tauFwd, tauBkwd int
		delta           float64
	}{
		{40, 10, 5}, {40, 10, 20}, {40, 10, 100}, {20, 4, 10}, {30, 0, 50},
	}
	for _, c := range cases {
		gamma := GammaTaylor(c.tauFwd, c.tauBkwd)
		plain, err := MaxStableAlpha(func(a float64) poly.Poly {
			return CharPolyDiscrepancy(c.tauFwd, c.tauBkwd, a, 1.0, c.delta)
		}, 2, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		corrected, err := MaxStableAlpha(func(a float64) poly.Poly {
			return CharPolyT2(c.tauFwd, c.tauBkwd, a, 1.0, c.delta, gamma)
		}, 2, 1e-7)
		if err != nil {
			t.Fatal(err)
		}
		if corrected <= plain {
			t.Errorf("τf=%d τb=%d Δ=%g: T2 max α %g not larger than uncorrected %g", c.tauFwd, c.tauBkwd, c.delta, corrected, plain)
		}
	}
}

func TestSimulateMatchesCharPolyStability(t *testing.T) {
	// Cross-validation: the noise-free trajectory is bounded exactly when
	// the companion polynomial is stable, on both sides of the threshold.
	for _, tau := range []int{4, 9, 15} {
		bound := Lemma1Bound(tau, 1.0)
		for _, f := range []float64{0.9, 1.1} {
			cfg := Config{Lambda: 1, Alpha: f * bound, TauFwd: tau, W0: 1, Steps: 6000, LossCap: 1e8}
			res := Simulate(cfg)
			wantDiverge := f > 1
			if wantDiverge {
				// Marginal instability grows slowly; check growth, not cap.
				grew := res.Diverged || res.FinalLoss() > res.Loss[0]
				if !grew {
					t.Errorf("τ=%d α=%.4g: expected growth above threshold, final loss %g", tau, cfg.Alpha, res.FinalLoss())
				}
			} else if res.Diverged || res.FinalLoss() > 0.5 {
				t.Errorf("τ=%d α=%.4g: expected decay below threshold, final loss %g", tau, cfg.Alpha, res.FinalLoss())
			}
		}
	}
}

func TestSimulateFigure3aSetup(t *testing.T) {
	// Figure 3(a): λ=1, α=0.2, noise N(0,1): τ ∈ {0,5} stays bounded,
	// τ=10 diverges.
	base := Config{Lambda: 1, Alpha: 0.2, NoiseStd: 1, W0: 0, Steps: 2500, Seed: 1, LossCap: 1e6}
	for _, tau := range []int{0, 5} {
		cfg := base
		cfg.TauFwd = tau
		if res := Simulate(cfg); res.Diverged {
			t.Errorf("τ=%d should remain bounded at α=0.2", tau)
		}
	}
	cfg := base
	cfg.TauFwd = 10
	if res := Simulate(cfg); !res.Diverged {
		t.Error("τ=10 should diverge at α=0.2 (Lemma 1 bound ≈ 0.149)")
	}
}

func TestSimulateFigure5aSetup(t *testing.T) {
	// Figure 5(a): τf=10, τb=6, λ=1. At a step size where Δ=0 converges,
	// Δ=5 diverges.
	alpha := 0.12 // below Lemma1Bound(10,1) ≈ 0.149, above 2/(Δ(τf−τb)) = 0.1
	conv := Simulate(Config{Lambda: 1, Alpha: alpha, TauFwd: 10, TauBkwd: 6, Delta: 0, NoiseStd: 1, Steps: 400, Seed: 2, LossCap: 1e6})
	if conv.Diverged {
		t.Fatal("Δ=0 should stay bounded")
	}
	div := Simulate(Config{Lambda: 1, Alpha: alpha, TauFwd: 10, TauBkwd: 6, Delta: 5, NoiseStd: 1, Steps: 400, Seed: 2, LossCap: 1e6})
	if !div.Diverged {
		t.Fatal("Δ=5 should diverge")
	}
}

func TestSimulateT2MatchesCharPolyT2(t *testing.T) {
	// The T2 simulator and the T2 companion polynomial must agree about
	// stability on both sides of the polynomial's threshold.
	tauFwd, tauBkwd := 12, 3
	d := 0.1
	gamma := GammaFromD(d, float64(tauFwd), float64(tauBkwd))
	delta := 4.0
	thr, err := MaxStableAlpha(func(a float64) poly.Poly {
		return CharPolyT2(tauFwd, tauBkwd, a, 1.0, delta, gamma)
	}, 2, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(alpha float64) *Result {
		return Simulate(Config{Lambda: 1, Alpha: alpha, TauFwd: tauFwd, TauBkwd: tauBkwd,
			Delta: delta, T2: true, D: d, W0: 1, Steps: 20000, LossCap: 1e10})
	}
	below := mk(0.9 * thr)
	if below.Diverged || below.FinalLoss() > below.Loss[0] {
		t.Errorf("below threshold (α=%.5g) should decay; final loss %g", 0.9*thr, below.FinalLoss())
	}
	above := mk(1.1 * thr)
	if !(above.Diverged || above.FinalLoss() > above.Loss[0]) {
		t.Errorf("above threshold (α=%.5g) should grow; final loss %g", 1.1*thr, above.FinalLoss())
	}
}

func TestRecomputeCorrectionWidensStability(t *testing.T) {
	// Figure 16 setup: Δ=10, Φ=−5, τf=10, τb=1, τr=4, λ=1. T2 correction
	// with D=0.1 must beat the uncorrected system's stability range.
	tauFwd, tauBkwd, tauRecomp := 10, 1, 4
	delta, phi := 10.0, -5.0
	gamma := GammaFromD(0.1, float64(tauFwd), float64(tauBkwd))
	plain, err := MaxStableAlpha(func(a float64) poly.Poly {
		return CharPolyRecomputeNoCorrection(tauFwd, tauBkwd, tauRecomp, a, 1.0, delta, phi)
	}, 2, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	corrected, err := MaxStableAlpha(func(a float64) poly.Poly {
		return CharPolyRecompute(tauFwd, tauBkwd, tauRecomp, a, 1.0, delta, phi, gamma)
	}, 2, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if corrected <= plain {
		t.Fatalf("recompute T2 max α %g not larger than uncorrected %g", corrected, plain)
	}
}

func TestCharPolyRecomputeReducesToT2(t *testing.T) {
	// Φ=0 and τr=τb collapses the recompute polynomial onto the T2 one.
	a := CharPolyRecompute(10, 2, 2, 0.05, 1, 3, 0, 0.7)
	b := CharPolyT2(10, 2, 0.05, 1, 3, 0.7)
	for _, w := range []complex128{1, complex(0.4, 0.6), -1} {
		if cmplx.Abs(a.Eval(w)-b.Eval(w)) > 1e-12 {
			t.Fatal("recompute polynomial with Φ=0 must equal T2 polynomial")
		}
	}
}

func TestLinearRegressionGradAndLoss(t *testing.T) {
	// f(w) = (1/2n)‖Xw − y‖² with X = I₂, y = (1,2): grad at 0 is (−.5,−1).
	lr := &LinearRegression{X: [][]float64{{1, 0}, {0, 1}}, Y: []float64{1, 2}}
	g := lr.Grad([]float64{0, 0})
	if math.Abs(g[0]+0.5) > 1e-12 || math.Abs(g[1]+1) > 1e-12 {
		t.Fatalf("grad = %v, want [-0.5 -1]", g)
	}
	if l := lr.Loss([]float64{1, 2}); l != 0 {
		t.Fatalf("loss at optimum = %g, want 0", l)
	}
}

func TestLinearRegressionMaxCurvature(t *testing.T) {
	// Diagonal design: X rows (2,0) and (0,1) → H = diag(4,1)/2 = diag(2,.5).
	lr := &LinearRegression{X: [][]float64{{2, 0}, {0, 1}}, Y: []float64{0, 0}}
	if got := lr.MaxCurvature(); math.Abs(got-2) > 1e-6 {
		t.Fatalf("MaxCurvature = %g, want 2", got)
	}
}

func TestDelayedSGDStabilityFollowsLemma1(t *testing.T) {
	// Figure 3(b) structure: the delayed full-batch GD on a linear
	// regression diverges just above (2/λmax)·sin(π/(4τ+2)) and converges
	// just below it.
	rng := rand.New(rand.NewSource(3))
	n, d := 60, 6
	lr := &LinearRegression{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		lr.X[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			lr.X[i][j] = rng.NormFloat64()
		}
		lr.Y[i] = rng.NormFloat64()
	}
	lam := lr.MaxCurvature()
	for _, tau := range []int{4, 16} {
		bound := Lemma1Bound(tau, lam)
		if l := lr.DelayedSGD(tau, 0.8*bound, 4000, 0, 1e8, 1); math.IsInf(l, 1) {
			t.Errorf("τ=%d: diverged below the Lemma 1 bound", tau)
		}
		if l := lr.DelayedSGD(tau, 1.3*bound, 4000, 0, 1e8, 1); !math.IsInf(l, 1) {
			t.Errorf("τ=%d: converged well above the Lemma 1 bound (loss %g)", tau, l)
		}
	}
}

func TestMaxStableAlphaEdgeCases(t *testing.T) {
	// A polynomial stable for every α in range returns hi.
	got, err := MaxStableAlpha(func(a float64) poly.Poly {
		return poly.FromReal(0.5, 1) // root −0.5 always
	}, 1.5, 1e-9)
	if err != nil || got != 1.5 {
		t.Fatalf("always-stable: got %g err %v, want 1.5", got, err)
	}
	// A polynomial unstable everywhere returns 0.
	got, err = MaxStableAlpha(func(a float64) poly.Poly {
		return poly.FromReal(-2, 1) // root 2 always
	}, 1.5, 1e-9)
	if err != nil || got != 0 {
		t.Fatalf("never-stable: got %g err %v, want 0", got, err)
	}
}
