package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// probeTask is a fake task with one scalar parameter per group whose
// Forward/Backward record the weight values the trainer installed. Paired
// with countingOptimizer (each update adds exactly +1 to every weight),
// the observed value of a weight IS its version number, so the trainer's
// version bookkeeping can be checked against the Clock formulas exactly.
type probeTask struct {
	groups   []pipeline.ParamGroup
	params   []*nn.Param
	numTrain int
	tr       *Trainer // set once built, to sample the T2 state a slot ran under
	badCall  int      // 1-based Forward call whose loss diverges (0: never)

	fwdSeen [][]float64 // fwdSeen[c][g]: forward weight seen at the c-th Forward call
	bwdSeen [][]float64 // bwdSeen[s][g]: backward weight seen at microbatch s
	actSeen [][]float64 // actSeen[s][g]: forward weight in place at microbatch s's Backward
	delta   [][]float64 // delta[c][g]: T2 δ at the c-th Forward call (T2 runs only)
}

func newProbeTask(groups, numTrain int) *probeTask {
	t := &probeTask{numTrain: numTrain}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("probe", 1)
		t.params = append(t.params, p)
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	return t
}

func (t *probeTask) Groups() []pipeline.ParamGroup { return t.groups }
func (t *probeTask) NumTrain() int                 { return t.numTrain }

func (t *probeTask) row(at func(i int, p *nn.Param) float64) []float64 {
	row := make([]float64, len(t.params))
	for i, p := range t.params {
		row[i] = at(i, p)
	}
	return row
}

func (t *probeTask) Forward(idx []int) float64 {
	t.fwdSeen = append(t.fwdSeen, t.row(func(_ int, p *nn.Param) float64 { return p.Data.Data[0] }))
	if t.tr != nil && t.tr.delta != nil {
		t.delta = append(t.delta, t.row(func(i int, _ *nn.Param) float64 { return t.tr.delta[i].Data[0] }))
	}
	if len(t.fwdSeen) == t.badCall {
		return math.Inf(1)
	}
	return 0.1
}

func (t *probeTask) Backward() {
	t.bwdSeen = append(t.bwdSeen, t.row(func(_ int, p *nn.Param) float64 { return p.BwdData().Data[0] }))
	t.actSeen = append(t.actSeen, t.row(func(_ int, p *nn.Param) float64 { return p.Data.Data[0] }))
}

func (t *probeTask) EvalTest() float64 { return 0 }

// countingOptimizer adds exactly 1 to every weight per step, making weight
// values equal version numbers.
type countingOptimizer struct{ ps []*nn.Param }

func (c *countingOptimizer) Step(lrs []float64) {
	c.Advance()
	c.StepRange(0, len(c.ps), lrs)
}
func (c *countingOptimizer) Advance() {}
func (c *countingOptimizer) StepRange(lo, hi int, _ []float64) {
	for _, p := range c.ps[lo:hi] {
		for i := range p.Data.Data {
			p.Data.Data[i]++
		}
	}
}
func (c *countingOptimizer) Params() []*nn.Param { return c.ps }
func (c *countingOptimizer) StateCopies() int    { return 3 }

// runProbe trains task under cfg and returns its trainer and timing clock.
func runProbe(t *testing.T, task *probeTask, cfg Config, epochs int) (*Trainer, pipeline.Clock) {
	t.Helper()
	cfg.Seed = 7
	tr, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	task.tr = tr
	if _, err := tr.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	return tr, pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
}

func probeTrainer(t *testing.T, method Method, groups, stages, batch, micro, epochs int, t2d float64) (*probeTask, *Trainer) {
	t.Helper()
	task := newProbeTask(groups, 4*batch)
	tr, _ := runProbe(t, task, Config{Method: method, Stages: stages, BatchSize: batch, MicrobatchSize: micro, T2D: t2d}, epochs)
	return task, tr
}

// probeEngines is the grid the version rule must not depend on: Reference,
// and the concurrent engine at W ∈ {1, 2, P}. Which version a slot reads
// is the trainer's rule (Trainer.install), whatever schedules the slots.
func probeEngines(p int) map[string]func() engine.Engine {
	grid := map[string]func() engine.Engine{"reference": func() engine.Engine { return engine.NewReference() }}
	for _, w := range []int{1, 2, p} {
		grid[fmt.Sprintf("concurrent/W=%d", w)] = func() engine.Engine { return concurrent.New(concurrent.WithWorkers(w)) }
	}
	return grid
}

// forEachEngine runs a one-group-per-stage probe under cfg on every engine
// of the grid and hands each finished run to check.
func forEachEngine(t *testing.T, cfg Config, epochs int, check func(t *testing.T, task *probeTask, tr *Trainer, clock pipeline.Clock)) {
	t.Helper()
	for name, eng := range probeEngines(cfg.Stages) {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Engine = eng()
			task := newProbeTask(cfg.Stages, 4*cfg.BatchSize)
			tr, clock := runProbe(t, task, cfg, epochs)
			check(t, task, tr, clock)
		})
	}
}

func TestPipeMareForwardSeesDelayedVersions(t *testing.T) {
	cfg := Config{Method: PipeMare, Stages: 6, BatchSize: 8, MicrobatchSize: 2} // N = 4
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, _ *Trainer, clock pipeline.Clock) {
		for s, row := range task.fwdSeen {
			for g, got := range row {
				stage1 := g + 1 // one group per stage
				want := float64(clock.FwdVersion(s, stage1))
				if got != want {
					t.Fatalf("microbatch %d stage %d: forward saw version %g, want %g", s, stage1, got, want)
				}
			}
		}
	})
}

func TestPipeMareBackwardSeesMaster(t *testing.T) {
	cfg := Config{Method: PipeMare, Stages: 5, BatchSize: 8, MicrobatchSize: 2}
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, _ *Trainer, clock pipeline.Clock) {
		for s, row := range task.bwdSeen {
			want := float64(clock.BwdVersion(s))
			for g, got := range row {
				if got != want {
					t.Fatalf("microbatch %d group %d: backward saw %g, want master version %g (τ_bkwd = 0)", s, g, got, want)
				}
				if act := task.actSeen[s][g]; act != task.fwdSeen[s][g] {
					t.Fatalf("microbatch %d group %d: backward ran over forward version %g, the forward slot read %g", s, g, act, task.fwdSeen[s][g])
				}
			}
		}
	})
}

func TestPipeDreamBackwardSeesStashedForwardWeights(t *testing.T) {
	cfg := Config{Method: PipeDream, Stages: 5, BatchSize: 8, MicrobatchSize: 2}
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, _ *Trainer, clock pipeline.Clock) {
		for s := range task.bwdSeen {
			for g := range task.bwdSeen[s] {
				stage1 := g + 1
				want := float64(clock.FwdVersion(s, stage1))
				if task.bwdSeen[s][g] != want {
					t.Fatalf("microbatch %d stage %d: backward saw %g, want stashed forward version %g", s, stage1, task.bwdSeen[s][g], want)
				}
				if task.bwdSeen[s][g] != task.fwdSeen[s][g] {
					t.Fatal("PipeDream must use identical forward and backward weights")
				}
			}
		}
	})
}

func TestGPipeSeesCurrentWeightsEverywhere(t *testing.T) {
	cfg := Config{Method: GPipe, Stages: 5, BatchSize: 8, MicrobatchSize: 2}
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, _ *Trainer, clock pipeline.Clock) {
		for s := range task.fwdSeen {
			want := float64(clock.BwdVersion(s)) // = committed updates before s
			for g := range task.fwdSeen[s] {
				if task.fwdSeen[s][g] != want || task.bwdSeen[s][g] != want {
					t.Fatalf("microbatch %d: GPipe saw fwd %g bwd %g, want synchronous %g",
						s, task.fwdSeen[s][g], task.bwdSeen[s][g], want)
				}
			}
		}
	})
}

// TestRecomputeSeesRecomputeVersions is the Appendix D row of the version
// rule: with recompute segments on, a microbatch's first climb reads the
// Table 1 forward versions, and its recompute climb and its backward slot
// both run over recompVersion(s, stage, segEnd) — T2-corrected by
// (τ_fwd − τ_recomp)·δ when T2 is on — while the backward weights stay the
// method's (PipeMare: the master, or its T2-corrected copy; PipeDream: the
// recompute snapshot itself).
func TestRecomputeSeesRecomputeVersions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		method Method
		t2d    float64
	}{{"PipeMare", PipeMare, 0}, {"PipeMare+T2", PipeMare, 0.135}, {"PipeDream", PipeDream, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Method: tc.method, Stages: 6, BatchSize: 8, MicrobatchSize: 2, T2D: tc.t2d, RecomputeSegments: 2}
			forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, tr *Trainer, clock pipeline.Clock) {
				if len(task.fwdSeen) != 2*len(task.bwdSeen) {
					t.Fatalf("%d forward passes for %d microbatches, want a first and a recompute climb each", len(task.fwdSeen), len(task.bwdSeen))
				}
				stale := false
				for s := range task.bwdSeen {
					for g := range task.params {
						st1, e1 := g+1, tr.segEnd1[g]
						if got, want := task.fwdSeen[2*s][g], float64(clock.FwdVersion(s, st1)); got != want {
							t.Fatalf("microbatch %d stage %d: first climb saw %g, want forward version %g", s, st1, got, want)
						}
						want := float64(tr.recompVersion(s, st1, e1))
						stale = stale || want != float64(clock.BwdVersion(s))
						if tc.t2d > 0 {
							tauR := float64(2*(e1-st1)+1) / float64(clock.N)
							want -= (tr.taus[g] - tauR) * task.delta[2*s+1][g]
						}
						if got := task.fwdSeen[2*s+1][g]; math.Abs(got-want) > 1e-12 {
							t.Fatalf("microbatch %d stage %d: recompute climb saw %g, want recompute version %g", s, st1, got, want)
						}
						if got := task.actSeen[s][g]; got != task.fwdSeen[2*s+1][g] {
							t.Fatalf("microbatch %d stage %d: backward ran over %g, the recompute climb read %g", s, st1, got, task.fwdSeen[2*s+1][g])
						}
						bwd := float64(clock.BwdVersion(s))
						switch {
						case tc.method == PipeDream:
							bwd = task.actSeen[s][g]
						case tc.t2d > 0:
							bwd -= tr.taus[g] * task.delta[2*s+1][g]
						}
						if got := task.bwdSeen[s][g]; math.Abs(got-bwd) > 1e-12 {
							t.Fatalf("microbatch %d stage %d: backward weights %g, want %g", s, st1, got, bwd)
						}
					}
				}
				if !stale {
					t.Fatal("no recompute slot ever read a stale version: the probe checks nothing")
				}
			})
		})
	}
}

// TestSlotCallsInstallTheVersionsTheyRead drives the slot surface by hand,
// one call at a time, and checks after each call what the stage's
// parameters point at: a slot installs before it computes, its own stage
// only, and Restore undoes it. (The probes above check the same rule
// through whole runs; this is the call-level contract engines rely on.)
func TestSlotCallsInstallTheVersionsTheyRead(t *testing.T) {
	for _, segs := range []int{0, 2} {
		task := newProbeTask(4, 32)
		tr, clock := runProbe(t, task, Config{Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2, T2D: 0.135, RecomputeSegments: segs}, 2)
		h := host{tr}
		h.SetAsync(true)
		s := h.MicroBase()
		installed := func(call string, stage int, wantData *tensor.Tensor) {
			t.Helper()
			for st, pm := range task.params {
				switch {
				case st != stage:
				case pm.Data != wantData && wantData != nil:
					t.Fatalf("segments=%d: %s(%d, %d) left the stage on the wrong forward weights", segs, call, s, stage)
				case pm.Bwd != tr.corrected[st]:
					t.Fatalf("segments=%d: %s(%d, %d) left the stage without its T2-corrected backward weights", segs, call, s, stage)
				}
			}
		}
		// poison stands where a stage's weights would be had its slot
		// computed before installing: the probe records what compute saw.
		poison := tensor.Full(-1, 1)
		saw := func(call string, rows [][]float64, g int) {
			t.Helper()
			if rows[len(rows)-1][g] == -1 {
				t.Fatalf("segments=%d: %s computed before it installed", segs, call)
			}
		}
		h.BeginMicro(s, []int{0, 1})
		for st := 0; st < 4; st++ {
			if task.params[st].Data != tr.masters[st] || task.params[st].Bwd != nil {
				t.Fatalf("segments=%d: stage %d installed before its own forward slot", segs, st)
			}
			task.params[st].Data = poison
			h.StageForward(s, st)
			installed("StageForward", st, tr.store.Get(st, clock.FwdVersion(s, st+1))[0])
		}
		saw("StageForward", task.fwdSeen, 3)
		if h.Recompute() != (segs > 0) {
			t.Fatalf("segments=%d: Recompute() = %v under an asynchronous chunk", segs, h.Recompute())
		}
		for st := 0; st < 4 && segs > 0; st++ {
			task.params[st].Data = poison
			h.StageRecompute(s, st)
			installed("StageRecompute", st, nil) // a fresh corrected buffer: its value is the probes' business
			if task.params[st].Data == poison {
				t.Fatalf("segments=%d: StageRecompute(%d, %d) installed nothing", segs, s, st)
			}
		}
		if segs > 0 {
			saw("StageRecompute", task.fwdSeen, 3)
		}
		for st := 3; st >= 0; st-- {
			task.params[st].Data, task.params[st].Bwd = poison, poison // as if another chain's slot had re-pointed the stage
			h.StageBackward(s, st)
			want := tr.store.Get(st, clock.FwdVersion(s, st+1))[0]
			if segs > 0 {
				want = nil
			}
			installed("StageBackward", st, want)
		}
		saw("StageBackward", task.bwdSeen, 0)
		saw("StageBackward", task.actSeen, 0)
		h.EndMicro(s)
		for st := 0; st < 4; st++ {
			h.Restore(st)
			if task.params[st].Data != tr.masters[st] || task.params[st].Bwd != nil {
				t.Fatalf("segments=%d: Restore(%d) left a version installed", segs, st)
			}
		}
		h.SetAsync(false)
		if h.Recompute() {
			t.Fatalf("segments=%d: Recompute() true under a synchronous chunk", segs)
		}
		h.BeginMicro(s, []int{0, 1})
		for st := 0; st < 4; st++ {
			h.StageForward(s, st)
			if task.params[st].Data != tr.masters[st] || task.params[st].Bwd != nil {
				t.Fatalf("segments=%d: a synchronous forward slot installed a version at stage %d", segs, st)
			}
		}
		h.EndMicro(s)
	}
}

// TestDivergedMinibatchIsNotCommitted pins what follows a bad loss, for
// every engine: the chains stop, no commit phase runs for that minibatch —
// the step clock, the masters and the version rings stay where the last
// good minibatch left them — and its partial gradients are dropped.
func TestDivergedMinibatchIsNotCommitted(t *testing.T) {
	const stages, n, good = 4, 4, 5 // the 6th minibatch's 3rd microbatch diverges
	for name, eng := range probeEngines(stages) {
		t.Run(name, func(t *testing.T) {
			task := newProbeTask(stages, 64)
			task.badCall = good*n + 3
			tr, _ := runProbe(t, task, Config{Method: PipeMare, Stages: stages, BatchSize: 8, MicrobatchSize: 2, Engine: eng()}, 3)
			if !tr.Diverged() {
				t.Fatal("the bad loss went unnoticed")
			}
			if tr.step != good {
				t.Fatalf("step clock at %d after divergence in minibatch %d, want %d: the bad minibatch was committed", tr.step, good+1, good)
			}
			for g, pm := range task.params {
				if pm.Data != tr.masters[g] || pm.Bwd != nil || pm.Data.Data[0] != good || tr.store.Latest(g) != good {
					t.Fatalf("stage %d left at weight %g (version %d), want the restored master at %d", g, pm.Data.Data[0], tr.store.Latest(g), good)
				}
				if pm.Grad.SumSq() != 0 {
					t.Fatalf("stage %d kept a partial gradient after divergence", g)
				}
			}
			if len(task.bwdSeen) != good*n+2 {
				t.Fatalf("%d backward passes, want %d: a chain ran on past the bad loss", len(task.bwdSeen), good*n+2)
			}
		})
	}
}

func TestFirstStageDelayEqualsTable1(t *testing.T) {
	// Measured delay for the first stage must be τ_fwd = (2(P−1)+1)/N
	// minibatches: in steady state the forward version lags the consuming
	// update by ⌈(2(P−i)+1 − j)/N⌉ for microbatch j; check the average gap.
	const stages, batch, micro = 8, 8, 2 // N = 4
	task, tr := probeTrainer(t, PipeMare, stages, stages, batch, micro, 6, 0)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	n := clock.N
	// Steady-state minibatch index.
	t0 := len(task.fwdSeen)/n - 2
	gap := 0.0
	for j := 0; j < n; j++ {
		s := t0*n + j
		consuming := float64(clock.Minibatch(s) + 1)
		gap += consuming - task.fwdSeen[s][0]
	}
	gap /= float64(n)
	wantMean := float64(2*(stages-1)+n) / float64(n)
	if math.Abs(gap-wantMean) > 1e-12 {
		t.Fatalf("measured first-stage delay %g updates, want %g", gap, wantMean)
	}
	// And the trainer's τ table must match Table 1 exactly.
	if tau := tr.Taus()[0]; math.Abs(tau-float64(2*(stages-1)+1)/float64(n)) > 1e-12 {
		t.Fatalf("τ_fwd[first stage] = %g, want %g", tau, float64(2*(stages-1)+1)/float64(n))
	}
}

func TestT2CorrectionExtrapolatesVelocity(t *testing.T) {
	// With the counting optimizer every update moves each weight by exactly
	// +1, so δ converges to 1 and the corrected backward weights approach
	// master − τ_i — i.e. T2 exactly reconstructs the forward-time weights
	// for a constant-velocity trajectory.
	const stages, batch, micro = 6, 8, 2
	task, tr := probeTrainer(t, PipeMare, stages, stages, batch, micro, 30, 0.135)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	last := len(task.bwdSeen) - 1
	master := float64(clock.BwdVersion(last))
	for g, got := range task.bwdSeen[last] {
		tau := tr.Taus()[g]
		want := master - tau
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("stage %d: corrected backward weight %g, want ≈ master−τ = %g", g+1, got, want)
		}
	}
}

func TestSegmentEnds(t *testing.T) {
	ends := segmentEnds(8, 2)
	want := []int{4, 4, 4, 4, 8, 8, 8, 8}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("segmentEnds(8,2) = %v, want %v", ends, want)
		}
	}
	// One segment: everything ends at the last stage.
	for _, e := range segmentEnds(5, 1) {
		if e != 5 {
			t.Fatalf("segmentEnds(5,1) = %v", segmentEnds(5, 1))
		}
	}
	// Segments capped at P.
	ends = segmentEnds(3, 10)
	for i, e := range ends {
		if e != i+1 {
			t.Fatalf("segmentEnds(3,10) = %v", ends)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	task := newProbeTask(4, 64)
	opt := &countingOptimizer{ps: task.params}
	if _, err := New(task, opt, optim.Constant(0.1), Config{Stages: 9, BatchSize: 8, MicrobatchSize: 2}); err == nil {
		t.Fatal("more stages than groups must error")
	}
	if _, err := New(task, opt, optim.Constant(0.1), Config{BatchSize: 7, MicrobatchSize: 2}); err == nil {
		t.Fatal("batch not divisible by microbatch must error")
	}
	if _, err := New(task, opt, optim.Constant(0.1), Config{BatchSize: 0, MicrobatchSize: 2}); err == nil {
		t.Fatal("zero batch must error")
	}
}

func TestMethodString(t *testing.T) {
	if GPipe.String() != "GPipe" || PipeDream.String() != "PipeDream" || PipeMare.String() != "PipeMare" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method must still render")
	}
}

func TestWarmupEpochsRunSynchronously(t *testing.T) {
	// With T3 warmup, the first warmup epochs must behave like GPipe
	// (forward sees the live master everywhere).
	const stages, batch, micro = 5, 8, 2
	task := newProbeTask(stages, 4*batch)
	opt := &countingOptimizer{ps: task.params}
	tr, err := New(task, opt, optim.Constant(0.1), Config{
		Method: PipeMare, Stages: stages, BatchSize: batch, MicrobatchSize: micro,
		WarmupEpochs: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(context.Background(), 2)
	clock := pipeline.Clock{P: stages, N: batch / micro}
	microsPerEpoch := 4 * (batch / micro)
	for s := 0; s < microsPerEpoch; s++ { // first epoch: synchronous
		want := float64(clock.BwdVersion(s))
		for g := range task.fwdSeen[s] {
			if task.fwdSeen[s][g] != want {
				t.Fatalf("warmup microbatch %d saw %g, want synchronous %g", s, task.fwdSeen[s][g], want)
			}
		}
	}
	// Second epoch: stage 1 must now see delayed versions.
	s := microsPerEpoch + 2*stages // steady-ish state inside epoch 2
	if task.fwdSeen[s][0] >= float64(clock.BwdVersion(s)) {
		t.Fatal("after warmup, the first stage must see stale weights")
	}
}

// --- cost-balanced partitioning ---

// sizedProbeTask builds a probe task whose group g holds a weight vector
// of sizes[g] scalars, so the monolithic cost proxy (weight counts) is
// skewed on purpose.
func sizedProbeTask(numTrain int, sizes ...int) *probeTask {
	t := &probeTask{numTrain: numTrain}
	for _, sz := range sizes {
		p := nn.NewParam("probe", sz)
		t.params = append(t.params, p)
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	return t
}

func TestPartitionCostModeBalancesMonolithicTaskBySize(t *testing.T) {
	// One huge group among tiny ones: even-by-count pairs it with a
	// neighbour, cost mode isolates it.
	task := sizedProbeTask(64, 1, 1, 100, 1, 1, 1)
	opt := &countingOptimizer{ps: task.params}
	tr, err := New(task, opt, optim.Constant(0.1), Config{
		Stages: 3, BatchSize: 8, MicrobatchSize: 2,
		Partition: pipeline.PartitionCost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PartitionMode() != pipeline.PartitionCost {
		t.Fatalf("mode = %v", tr.PartitionMode())
	}
	gc := tr.GroupCosts()
	if len(gc) != 6 || gc[2] != 100 {
		t.Fatalf("group costs = %v, want size proxy with 100 at index 2", gc)
	}
	// The heavy group must sit alone on its stage.
	heavy := tr.Partition().StageOf[2]
	for g, s := range tr.Partition().StageOf {
		if g != 2 && s == heavy {
			t.Fatalf("group %d shares stage %d with the heavy group: %v", g, s, tr.Partition().StageOf)
		}
	}
	if im := tr.StageImbalance(); im != pipeline.Imbalance(tr.StageCosts()) {
		t.Fatalf("imbalance accessor inconsistent: %g", im)
	}
	// The trainer still trains under the skewed partition.
	tr.Run(context.Background(), 1)
}

func TestPartitionEvenKeepsHistoricalSplit(t *testing.T) {
	task := sizedProbeTask(64, 1, 1, 100, 1, 1, 1)
	opt := &countingOptimizer{ps: task.params}
	tr, err := New(task, opt, optim.Constant(0.1), Config{
		Stages: 3, BatchSize: 8, MicrobatchSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2} // ⌊g·P/G⌋
	for g, s := range tr.Partition().StageOf {
		if s != want[g] {
			t.Fatalf("even StageOf = %v, want %v", tr.Partition().StageOf, want)
		}
	}
	// Even mode still reports costs (for imbalance tracking).
	if len(tr.GroupCosts()) != 6 {
		t.Fatalf("even mode lost group costs: %v", tr.GroupCosts())
	}
}

func TestPartitionExplicitGroupCosts(t *testing.T) {
	task := newProbeTask(4, 64)
	opt := &countingOptimizer{ps: task.params}
	costs := []float64{9, 1, 1, 1}
	tr, err := New(task, opt, optim.Constant(0.1), Config{
		Stages: 2, BatchSize: 8, MicrobatchSize: 2,
		Partition: pipeline.PartitionCost, GroupCosts: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Partition().StageOf; got[0] != 0 || got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Fatalf("explicit-cost StageOf = %v", got)
	}
	// Feeding a trainer's GroupCosts back reproduces its partition.
	tr2, err := New(newProbeTask(4, 64), &countingOptimizer{ps: task.params}, optim.Constant(0.1), Config{
		Stages: 2, BatchSize: 8, MicrobatchSize: 2,
		Partition: pipeline.PartitionProfile, GroupCosts: tr.GroupCosts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := range costs {
		if tr.Partition().StageOf[g] != tr2.Partition().StageOf[g] {
			t.Fatalf("pinned costs gave different partition: %v vs %v",
				tr.Partition().StageOf, tr2.Partition().StageOf)
		}
	}
}

func TestPartitionConfigErrors(t *testing.T) {
	task := newProbeTask(4, 64)
	base := Config{Stages: 2, BatchSize: 8, MicrobatchSize: 2}
	mk := func(mut func(*Config)) error {
		cfg := base
		mut(&cfg)
		_, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), cfg)
		return err
	}
	if err := mk(func(c *Config) { c.GroupCosts = []float64{1, 1, 1, 1} }); err == nil {
		t.Fatal("explicit costs with even mode must fail")
	}
	if err := mk(func(c *Config) {
		c.Partition = pipeline.PartitionCost
		c.GroupCosts = []float64{1, 1}
	}); err == nil {
		t.Fatal("cost length mismatch must fail")
	}
	if err := mk(func(c *Config) { c.Partition = pipeline.PartitionMode(99) }); err == nil {
		t.Fatal("unknown partition mode must fail")
	}
}
