package optim

import (
	"math"
	"math/rand"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
)

func quadParam(w0 float64) *nn.Param {
	p := nn.NewParam("w", 1)
	p.Data.SetFlat(0, w0)
	return p
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize (1/2)w² with gradient w.
	p := quadParam(5)
	opt := NewSGD([]*nn.Param{p}, 0, 0)
	for i := 0; i < 200; i++ {
		p.Grad.SetFlat(0, p.Data.FlatAt(0))
		opt.Step(UniformLR(0.1, 1))
	}
	if math.Abs(p.Data.FlatAt(0)) > 1e-6 {
		t.Fatalf("SGD did not converge: w = %g", p.Data.FlatAt(0))
	}
}

func TestSGDMomentumSingleSteps(t *testing.T) {
	// With β=0.5, lr=1, g=1 constant: v₁=-1, w₁=w₀-1; v₂=-1.5, w₂=w₀-2.5.
	p := quadParam(0)
	opt := NewSGD([]*nn.Param{p}, 0.5, 0)
	p.Grad.SetFlat(0, 1)
	opt.Step(UniformLR(1, 1))
	if p.Data.FlatAt(0) != -1 {
		t.Fatalf("after step 1 w = %g, want -1", p.Data.FlatAt(0))
	}
	p.Grad.SetFlat(0, 1)
	opt.Step(UniformLR(1, 1))
	if p.Data.FlatAt(0) != -2.5 {
		t.Fatalf("after step 2 w = %g, want -2.5", p.Data.FlatAt(0))
	}
}

func TestSGDWeightDecay(t *testing.T) {
	// With zero gradient, decay wd=0.1 and lr=1: w ← w − wd·w = 0.9w.
	p := quadParam(2)
	opt := NewSGD([]*nn.Param{p}, 0, 0.1)
	p.Grad.SetFlat(0, 0)
	opt.Step(UniformLR(1, 1))
	if math.Abs(p.Data.FlatAt(0)-1.8) > 1e-12 {
		t.Fatalf("w = %g, want 1.8", p.Data.FlatAt(0))
	}
}

func TestAdamWFirstStepIsSignedLR(t *testing.T) {
	// Bias-corrected Adam's first update is −lr·g/(|g|+ε·corr) ≈ −lr·sign(g).
	p := quadParam(0)
	opt := NewAdamW([]*nn.Param{p}, 0.9, 0.999, 1e-12, 0)
	p.Grad.SetFlat(0, 7)
	opt.Step(UniformLR(0.01, 1))
	if math.Abs(p.Data.FlatAt(0)+0.01) > 1e-8 {
		t.Fatalf("first Adam step = %g, want ≈ -0.01", p.Data.FlatAt(0))
	}
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	p := quadParam(3)
	opt := NewAdamW([]*nn.Param{p}, 0.9, 0.98, 1e-9, 0)
	for i := 0; i < 2000; i++ {
		p.Grad.SetFlat(0, p.Data.FlatAt(0))
		opt.Step(UniformLR(0.05, 1))
	}
	if math.Abs(p.Data.FlatAt(0)) > 1e-2 {
		t.Fatalf("AdamW did not converge: w = %g", p.Data.FlatAt(0))
	}
}

func TestAdamWDecoupledDecay(t *testing.T) {
	// With zero gradient, AdamW still shrinks weights by lr·wd·w.
	p := quadParam(1)
	opt := NewAdamW([]*nn.Param{p}, 0.9, 0.98, 1e-9, 0.5)
	p.Grad.SetFlat(0, 0)
	opt.Step(UniformLR(0.1, 1))
	if math.Abs(p.Data.FlatAt(0)-0.95) > 1e-9 {
		t.Fatalf("w = %g, want 0.95", p.Data.FlatAt(0))
	}
}

func TestStateCopies(t *testing.T) {
	p := []*nn.Param{quadParam(0)}
	if got := NewSGD(p, 0.9, 0).StateCopies(); got != 3 {
		t.Fatalf("SGD copies = %d, want 3", got)
	}
	if got := NewAdamW(p, 0.9, 0.98, 1e-9, 0).StateCopies(); got != 4 {
		t.Fatalf("AdamW copies = %d, want 4", got)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Base: 0.1, DropEvery: 100, Factor: 0.1}
	cases := []struct {
		step int
		want float64
	}{{0, 0.1}, {99, 0.1}, {100, 0.01}, {250, 0.001}}
	for _, c := range cases {
		if got := s.LR(c.step); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("LR(%d) = %g, want %g", c.step, got, c.want)
		}
	}
}

func TestWarmupInvSqrtSchedule(t *testing.T) {
	s := WarmupInvSqrt{Peak: 1.0, Init: 0.0, Warmup: 100}
	if got := s.LR(0); got != 0 {
		t.Errorf("LR(0) = %g, want 0", got)
	}
	if got := s.LR(50); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LR(50) = %g, want 0.5", got)
	}
	if got := s.LR(100); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("LR(100) = %g, want 1", got)
	}
	if got := s.LR(400); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LR(400) = %g, want 0.5 (inv-sqrt decay)", got)
	}
	// Monotone non-increasing after the peak.
	prev := s.LR(100)
	for k := 101; k < 500; k += 7 {
		if cur := s.LR(k); cur > prev+1e-15 {
			t.Fatalf("schedule increased after warmup at %d", k)
		} else {
			prev = cur
		}
	}
}

// t1LRs is T1Rates at a constant base rate into a fresh slice.
func t1LRs(taus []float64, base float64, step, k int) []float64 {
	out := make([]float64, len(taus))
	T1Rates(out, taus, base, step, k)
	return out
}

func TestT1Rescheduler(t *testing.T) {
	taus := []float64{16, 4, 1, 0.25}
	lrsAt := func(k int) []float64 { return t1LRs(taus, 0.1, k, 100) }

	// At k=0 the rate is base/τ exactly (with τ clamped at 1).
	lrs := lrsAt(0)
	want0 := []float64{0.1 / 16, 0.1 / 4, 0.1, 0.1}
	for i := range want0 {
		if math.Abs(lrs[i]-want0[i]) > 1e-12 {
			t.Errorf("LRs(0)[%d] = %g, want %g", i, lrs[i], want0[i])
		}
	}
	// At k=K and beyond the base rate is restored.
	for _, k := range []int{100, 500} {
		for i, lr := range lrsAt(k) {
			if math.Abs(lr-0.1) > 1e-12 {
				t.Errorf("LRs(%d)[%d] = %g, want 0.1", k, i, lr)
			}
		}
	}
	// Halfway: exponent p = 0.5 → rate = base/√τ.
	lrs = lrsAt(50)
	if math.Abs(lrs[0]-0.1/4) > 1e-12 {
		t.Errorf("LRs(50)[0] = %g, want %g", lrs[0], 0.1/4)
	}
	// Monotone non-decreasing in k for τ > 1.
	prev := lrsAt(0)[0]
	for k := 1; k <= 120; k++ {
		cur := lrsAt(k)[0]
		if cur < prev-1e-15 {
			t.Fatalf("T1 rate decreased at step %d", k)
		}
		prev = cur
	}
}

func TestT1DisabledKeepsBase(t *testing.T) {
	for _, lr := range t1LRs([]float64{8, 2}, 0.2, 0, 0) {
		if lr != 0.2 {
			t.Fatalf("K=0 must disable rescheduling, got %g", lr)
		}
	}
}

func TestUniformLR(t *testing.T) {
	lrs := UniformLR(0.3, 4)
	if len(lrs) != 4 {
		t.Fatalf("len = %d", len(lrs))
	}
	for _, v := range lrs {
		if v != 0.3 {
			t.Fatalf("value = %g", v)
		}
	}
}

func TestOptimizersTrainTinyNetwork(t *testing.T) {
	// End-to-end smoke test: a 2-layer MLP fits a linear map with both
	// optimizers.
	for _, mk := range []struct {
		name string
		make func(ps []*nn.Param) Optimizer
	}{
		{"sgd", func(ps []*nn.Param) Optimizer { return NewSGD(ps, 0.9, 0) }},
		{"adamw", func(ps []*nn.Param) Optimizer { return NewAdamW(ps, 0.9, 0.98, 1e-9, 0) }},
	} {
		rng := rand.New(rand.NewSource(42))
		fc1, act, fc2 := nn.NewLinear("fc1", 3, 16, true, rng), nn.NewReLU(), nn.NewLinear("fc2", 16, 1, true, rng)
		ps := append(fc1.Params(), fc2.Params()...)
		opt := mk.make(ps)
		x, y := tensor.New(24, 3), make([]float64, 24)
		for i := range y {
			a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			x.SetFlat(i*3, a)
			x.SetFlat(i*3+1, b)
			x.SetFlat(i*3+2, c)
			y[i] = 2*a - b + 0.5*c
		}
		var final float64
		var tp nn.Tape
		for it := 0; it < 600; it++ {
			tp.Reset()
			out := fc2.Forward(&tp, act.Forward(&tp, fc1.Forward(&tp, x)))
			// Half the mean squared error, and its gradient.
			dy := tensor.NewLike(out)
			final = 0
			for i, want := range y {
				d := out.FlatAt(i) - want
				final += d * d / float64(2*len(y))
				dy.SetFlat(i, d/float64(len(y)))
			}
			nn.ZeroGrads(ps)
			fc1.Backward(&tp, act.Backward(&tp, fc2.Backward(&tp, dy)))
			opt.Step(UniformLR(0.01, len(ps)))
		}
		if final > 0.02 {
			t.Errorf("%s: final loss %g too high", mk.name, final)
		}
	}
}

// shardParams builds n scalar params with distinct weights and gradients.
func shardParams(n int) []*nn.Param {
	ps := make([]*nn.Param, n)
	for i := range ps {
		ps[i] = quadParam(float64(i + 1))
		ps[i].Grad.SetFlat(0, 0.5*float64(i+1))
	}
	return ps
}

// TestShardedStepMatchesFullStep pins the ZeRO-style split: stepping the
// full optimizer once must be bit-identical to stepping each shard of a
// sharded sibling set over the same state — the arithmetic the
// replica-sharded commit distributes across replicas. The shards take
// over the full optimizer's weights and moments after update 5, so
// StepRange(k, …) must match the (k+1)-th Step from the clock it is
// given alone.
func TestShardedStepMatchesFullStep(t *testing.T) {
	const n = 7
	builders := []struct {
		name  string
		full  func(ps []*nn.Param) Optimizer
		shard func(ps []*nn.Param, sh Shard) Optimizer
	}{
		{"sgd",
			func(ps []*nn.Param) Optimizer { return NewSGD(ps, 0.9, 0.01) },
			func(ps []*nn.Param, sh Shard) Optimizer { return NewSGDShard(ps, 0.9, 0.01, sh) }},
		{"adamw",
			func(ps []*nn.Param) Optimizer { return NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4) },
			func(ps []*nn.Param, sh Shard) Optimizer { return NewAdamWShard(ps, 0.9, 0.98, 1e-9, 1e-4, sh) }},
	}
	shards := []Shard{{0, 3}, {3, 5}, {5, 7}} // uneven split
	for _, b := range builders {
		ref := shardParams(n)
		full := b.full(ref)
		split := shardParams(n)
		var parts []Optimizer
		for _, sh := range shards {
			parts = append(parts, b.shard(split, sh))
		}
		lrs := make([]float64, n)
		for i := range lrs {
			lrs[i] = 0.01 * float64(i+1)
		}
		const start = 5
		for range start {
			full.Step(lrs)
		}
		for j, sh := range shards {
			for i := sh.Lo; i < sh.Hi; i++ {
				split[i].Data.CopyFrom(ref[i].Data)
				for k, m := range parts[j].MomentTensors(i) {
					m.CopyFrom(full.MomentTensors(i)[k])
				}
			}
		}
		for step := start; step < start+3; step++ {
			full.Step(lrs)
			for j, sh := range shards {
				parts[j].StepRange(step, sh.Lo, sh.Hi, lrs[sh.Lo:sh.Hi])
			}
			for i := range ref {
				if ref[i].Data.FlatAt(0) != split[i].Data.FlatAt(0) {
					t.Fatalf("%s step %d param %d: full %v != sharded %v",
						b.name, step, i, ref[i].Data.FlatAt(0), split[i].Data.FlatAt(0))
				}
			}
		}
	}
}

// TestShardStateFootprint pins the memory point of the refactor: a
// sharded optimizer allocates moment state only for its shard, and an
// empty shard allocates none.
func TestShardStateFootprint(t *testing.T) {
	ps := shardParams(6)
	sgd := NewSGDShard(ps, 0.9, 0, Shard{Lo: 2, Hi: 5})
	if got := sgd.StateRange(); got != (Shard{2, 5}) {
		t.Fatalf("StateRange = %+v, want {2 5}", got)
	}
	if len(sgd.vel) != 3 {
		t.Fatalf("sharded SGD holds %d velocity buffers, want 3", len(sgd.vel))
	}
	adam := NewAdamWShard(ps, 0.9, 0.98, 1e-9, 0, Shard{})
	if len(adam.m) != 0 || len(adam.v) != 0 {
		t.Fatalf("empty-shard AdamW holds %d/%d moment buffers, want none", len(adam.m), len(adam.v))
	}
	if full := NewSGD(ps, 0.9, 0); full.StateRange() != FullShard(6) {
		t.Fatalf("full SGD StateRange = %+v, want {0 6}", full.StateRange())
	}
}

// TestShardCloneMatchesOriginal pins CloneShard: a clone over fresh
// parameter copies steps its shard bit-identically to the original.
func TestShardCloneMatchesOriginal(t *testing.T) {
	ps := shardParams(5)
	var full Optimizer = NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
	clonePs := shardParams(5)
	sh := Shard{Lo: 1, Hi: 4}
	clone := full.CloneShard(clonePs, sh)
	lrs := []float64{0.01, 0.02, 0.03, 0.04, 0.05}
	full.StepRange(0, sh.Lo, sh.Hi, lrs[sh.Lo:sh.Hi])
	clone.StepRange(0, sh.Lo, sh.Hi, lrs[sh.Lo:sh.Hi])
	for i := sh.Lo; i < sh.Hi; i++ {
		if ps[i].Data.FlatAt(0) != clonePs[i].Data.FlatAt(0) {
			t.Fatalf("param %d: original %v != clone %v", i, ps[i].Data.FlatAt(0), clonePs[i].Data.FlatAt(0))
		}
	}
}

// TestShardOutOfRangePanics pins the ownership guard: stepping outside
// the optimizer's state shard is a programming error, not silent
// corruption.
func TestShardOutOfRangePanics(t *testing.T) {
	ps := shardParams(4)
	sgd := NewSGDShard(ps, 0.9, 0, Shard{Lo: 1, Hi: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("StepRange outside the state shard did not panic")
		}
	}()
	sgd.StepRange(0, 0, 2, []float64{0.1, 0.1})
}
