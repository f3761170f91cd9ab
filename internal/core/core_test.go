package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// stubProgram compiles one op per weight group: the smallest program whose
// stage partition is the group partition.
func stubProgram(groups int, op func(g int) nn.Op) *nn.Program {
	prog := &nn.Program{}
	for g := 0; g < groups; g++ {
		prog.Ops = append(prog.Ops, op(g))
		prog.GroupOf = append(prog.GroupOf, g)
	}
	return prog
}

// probeTask is a fake task with one scalar parameter per group and one op
// per group that records the weight values its own slot found installed.
// Paired with countingOptimizer (each update adds exactly +1 to every
// weight), the observed value of a weight IS its version number, so the
// trainer's version bookkeeping can be checked against the Clock formulas
// exactly — per (microbatch, stage), at the moment that stage's slot ran,
// with as many chains in flight as the engine keeps.
type probeTask struct {
	groups   []pipeline.ParamGroup
	params   []*nn.Param
	prog     *nn.Program
	numTrain int
	tr       *Trainer // set once built: names the microbatch a machine carries, and samples the T2 state
	badMicro int      // microbatch whose loss diverges (-1: never)
	inFlight int      // most microbatches ever found in flight at a bind

	// Records are indexed [microbatch s][group], not appended: the ops run
	// on whichever engine worker holds their stage. A cell is NaN until
	// its slot has run; mu guards only the growth of the tables.
	mu       sync.Mutex
	fwdSeen  [][]float64 // forward weight the forward slot read
	recSeen  [][]float64 // forward weight the recompute slot read
	bwdSeen  [][]float64 // backward weight the backward slot read
	actSeen  [][]float64 // forward weight in place at the backward slot
	fwdDelta [][]float64 // T2 δ at the forward slot (T2 runs only)
	recDelta [][]float64 // T2 δ at the recompute slot
}

func newProbeTask(groups, numTrain int) *probeTask {
	return sizedProbeTask(numTrain, make([]int, groups)...)
}

// sizedProbeTask builds a probe task whose group g holds a weight vector
// of max(sizes[g], 1) scalars; the probes read element 0.
func sizedProbeTask(numTrain int, sizes ...int) *probeTask {
	t := &probeTask{numTrain: numTrain, badMicro: -1}
	for _, sz := range sizes {
		p := nn.NewParam("probe", max(sz, 1))
		t.params = append(t.params, p)
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	t.prog = stubProgram(len(sizes), func(g int) nn.Op { return probeOp{t, g} })
	return t
}

func (t *probeTask) Groups() []pipeline.ParamGroup { return t.groups }
func (t *probeTask) NumTrain() int                 { return t.numTrain }
func (t *probeTask) Program() *nn.Program          { return t.prog }
func (t *probeTask) EvalTest() float64             { return 0 }

// BindMicro labels the machine with the microbatch it carries, found in
// the trainer's in-flight table (the samples themselves are irrelevant).
func (t *probeTask) BindMicro(m *nn.Machine, _ []int) {
	if t.tr == nil {
		panic("probeTask: set tr to the trainer built over the task before it runs")
	}
	t.tr.flowMu.Lock()
	defer t.tr.flowMu.Unlock()
	t.inFlight = max(t.inFlight, len(t.tr.flows))
	for s, fl := range t.tr.flows {
		if fl.m == m {
			m.Labels = append(m.Labels[:0], s)
			return
		}
	}
	panic("probeTask: machine bound outside a microbatch")
}

// cell returns row s of a record table, growing the table to reach it.
func (t *probeTask) cell(tab *[][]float64, s int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(*tab) <= s {
		row := make([]float64, len(t.params))
		for g := range row {
			row[g] = math.NaN()
		}
		*tab = append(*tab, row)
	}
	return (*tab)[s]
}

// probeOp is group g's op: it computes nothing and records what it read.
type probeOp struct {
	t *probeTask
	g int
}

// Forward records the installed forward weight (and T2 δ) of its group. A
// microbatch's first visit is its forward slot, the second its recompute
// slot.
func (o probeOp) Forward(m *nn.Machine) {
	t, g, s := o.t, o.g, m.Labels[0]
	row, delta := t.cell(&t.fwdSeen, s), &t.fwdDelta
	if !math.IsNaN(row[g]) {
		row, delta = t.cell(&t.recSeen, s), &t.recDelta
	}
	row[g] = t.params[g].Data.FlatAt(0)
	if t.tr.delta != nil {
		t.cell(delta, s)[g] = t.tr.delta[g].FlatAt(0)
	}
	m.Loss = 0.1
	if s == t.badMicro {
		m.Loss = math.Inf(1)
	}
}

// Backward records the backward weight its slot read and the forward
// weight it ran over.
func (o probeOp) Backward(m *nn.Machine) {
	t, g, s := o.t, o.g, m.Labels[0]
	t.cell(&t.bwdSeen, s)[g] = t.params[g].BwdData().FlatAt(0)
	t.cell(&t.actSeen, s)[g] = t.params[g].Data.FlatAt(0)
}

// countingOptimizer adds exactly 1 to every weight per step, making weight
// values equal version numbers. It keeps no moments and no clock.
type countingOptimizer struct{ ps []*nn.Param }

func (c *countingOptimizer) Step(lrs []float64) {
	c.StepRange(0, 0, len(c.ps), lrs)
}
func (c *countingOptimizer) StepRange(_, lo, hi int, _ []float64) {
	for _, p := range c.ps[lo:hi] {
		d := tensor.F64(p.Data)
		for i := range d {
			d[i]++
		}
	}
}
func (c *countingOptimizer) Params() []*nn.Param { return c.ps }
func (c *countingOptimizer) StateCopies() int    { return 3 }
func (c *countingOptimizer) CloneShard(ps []*nn.Param, _ optim.Shard) optim.Optimizer {
	return &countingOptimizer{ps: ps}
}
func (c *countingOptimizer) StateRange() optim.Shard            { return optim.FullShard(len(c.ps)) }
func (c *countingOptimizer) MomentTensors(int) []*tensor.Tensor { return nil }

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
			if serial := name == "reference"; serial != (task.inFlight == 1) {
				t.Fatalf("at most %d microbatches in flight: the probe must see Reference's one chain, and overlapping chains under the concurrent engine", task.inFlight)
			}
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
			want := float64(clock.Minibatch(s))
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

// TestHogwildSeesDrawnVersions is the Appendix E row of the version rule:
// under Config.Hogwild every slot of minibatch k at stage i — the N = 4
// microbatches share one draw — reads version max(k − Delay(seed, k, i), 0),
// forward and (PipeDream) backward alike.
func TestHogwildSeesDrawnVersions(t *testing.T) {
	h := &pipeline.Hogwild{TauMax: 6, MeanScale: 0.8}
	cfg := Config{Method: PipeDream, Stages: 5, BatchSize: 8, MicrobatchSize: 2, Hogwild: h}
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, tr *Trainer, clock pipeline.Clock) {
		stale := false
		for s := range task.bwdSeen {
			k := clock.Minibatch(s)
			for g := range task.params {
				want := float64(max(k-h.Delay(tr.cfg.Seed, k, g+1, clock.P), 0))
				if fwd, bwd := task.fwdSeen[s][g], task.bwdSeen[s][g]; fwd != want || bwd != want {
					t.Fatalf("microbatch %d stage %d: forward saw %g, backward %g, want the drawn version %g", s, g+1, fwd, bwd, want)
				}
				stale = stale || want < float64(k)
			}
		}
		if !stale {
			t.Fatal("no slot ever read a stale version: the probe checks nothing")
		}
	})
}

// TestHogwildTausExposed pins the T1 half of Appendix E: the trainer
// reschedules by the draw's mean delays, the first stage's the largest.
func TestHogwildTausExposed(t *testing.T) {
	h := &pipeline.Hogwild{TauMax: 10, MeanScale: 0.5}
	task := newProbeTask(4, 64)
	tr, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), Config{
		Method: PipeDream, BatchSize: 8, MicrobatchSize: 8, Hogwild: h,
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, tau := range tr.Taus() {
		if want := h.Mean(g+1, 4); tau != want {
			t.Fatalf("τ[%d] = %g, want the stage's mean delay %g", g, tau, want)
		}
	}
	if tr.Taus()[0] != 5 {
		t.Fatalf("first-stage τ = %g, want MeanScale·TauMax = 5", tr.Taus()[0])
	}
}

// TestHogwildConfigValidation pins where the Hogwild rule is refused: under
// GPipe and with recompute, whose slots would silently not read the draw,
// and for a delay model with a negative or NaN parameter.
func TestHogwildConfigValidation(t *testing.T) {
	task := newProbeTask(4, 64)
	ok := pipeline.Hogwild{TauMax: 4, MeanScale: 0.5}
	for _, tc := range []struct {
		name string
		cfg  Config
		h    pipeline.Hogwild
		want string
	}{
		{"GPipe", Config{Method: GPipe, MicrobatchSize: 8}, ok, "asynchronous method"},
		{"recompute", Config{Method: PipeMare, MicrobatchSize: 8, RecomputeSegments: 2}, ok, "recompute"},
		{"replicas", Config{Method: PipeMare, MicrobatchSize: 4, Replicas: 2}, ok, "single replica"},
		{"negative TauMax", Config{Method: PipeDream, MicrobatchSize: 8}, pipeline.Hogwild{TauMax: -1, MeanScale: 0.5}, "TauMax >= 0"},
		{"NaN MeanScale", Config{Method: PipeMare, MicrobatchSize: 8}, pipeline.Hogwild{TauMax: 4, MeanScale: math.NaN()}, "MeanScale >= 0"},
	} {
		cfg := tc.cfg
		cfg.BatchSize, cfg.Hogwild = 8, &tc.h
		if _, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for _, m := range []Method{PipeDream, PipeMare} {
		if _, err := New(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), Config{Method: m, BatchSize: 8, MicrobatchSize: 8, Hogwild: &ok}); err != nil {
			t.Errorf("%v with Hogwild delays: %v", m, err)
		}
	}
}

func TestGPipeSeesCurrentWeightsEverywhere(t *testing.T) {
	cfg := Config{Method: GPipe, Stages: 5, BatchSize: 8, MicrobatchSize: 2}
	forEachEngine(t, cfg, 3, func(t *testing.T, task *probeTask, _ *Trainer, clock pipeline.Clock) {
		for s := range task.fwdSeen {
			want := float64(clock.Minibatch(s)) // = committed updates before s
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
// both run over the clock's RecompVersion — T2-corrected by
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
				if len(task.fwdSeen) != len(task.bwdSeen) || len(task.recSeen) != len(task.bwdSeen) {
					t.Fatalf("%d forward and %d recompute climbs for %d microbatches, want one of each", len(task.fwdSeen), len(task.recSeen), len(task.bwdSeen))
				}
				stale := false
				for s := range task.bwdSeen {
					for g := range task.params {
						st1 := g + 1
						if got, want := task.fwdSeen[s][g], float64(clock.FwdVersion(s, st1)); got != want {
							t.Fatalf("microbatch %d stage %d: first climb saw %g, want forward version %g", s, st1, got, want)
						}
						v, tauR := tr.clock.RecompVersion(s, st1)
						want := float64(v)
						stale = stale || v != clock.Minibatch(s)
						if tc.t2d > 0 {
							want -= (tr.taus[g] - tauR) * task.recDelta[s][g]
						}
						if got := task.recSeen[s][g]; math.Abs(got-want) > 1e-12 {
							t.Fatalf("microbatch %d stage %d: recompute climb saw %g, want recompute version %g", s, st1, got, want)
						}
						if got := task.actSeen[s][g]; got != task.recSeen[s][g] {
							t.Fatalf("microbatch %d stage %d: backward ran over %g, the recompute climb read %g", s, st1, got, task.recSeen[s][g])
						}
						bwd := float64(clock.Minibatch(s))
						switch {
						case tc.method == PipeDream:
							bwd = task.actSeen[s][g]
						case tc.t2d > 0:
							bwd -= tr.taus[g] * task.recDelta[s][g]
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
		// computed before installing: the stage's probe op records what
		// its compute saw.
		poison := tensor.New(1)
		poison.Fill(-1)
		saw := func(call string, rows [][]float64, stage int) {
			t.Helper()
			if got := rows[s][stage]; got == -1 || math.IsNaN(got) {
				t.Fatalf("segments=%d: %s(%d, %d) computed over %g: before it installed, or not at all", segs, call, s, stage, got)
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
			saw("StageForward", task.fwdSeen, st)
		}
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
			saw("StageRecompute", task.recSeen, st)
		}
		for st := 3; st >= 0; st-- {
			task.params[st].Data, task.params[st].Bwd = poison, poison // as if another chain's slot had re-pointed the stage
			h.StageBackward(s, st)
			want := tr.store.Get(st, clock.FwdVersion(s, st+1))[0]
			if segs > 0 {
				want = nil
			}
			installed("StageBackward", st, want)
			saw("StageBackward", task.bwdSeen, st)
			saw("StageBackward", task.actSeen, st)
		}
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
			task.badMicro = good*n + 2
			tr, _ := runProbe(t, task, Config{Method: PipeMare, Stages: stages, BatchSize: 8, MicrobatchSize: 2, Engine: eng()}, 3)
			if !tr.Diverged() {
				t.Fatal("the bad loss went unnoticed")
			}
			if tr.steps() != good {
				t.Fatalf("step clock at %d after divergence in minibatch %d, want %d: the bad minibatch was committed", tr.steps(), good+1, good)
			}
			for g, pm := range task.params {
				if pm.Data != tr.masters[g] || pm.Bwd != nil || pm.Data.FlatAt(0) != good || tr.store.Latest(g) != good {
					t.Fatalf("stage %d left at weight %g (version %d), want the restored master at %d", g, pm.Data.FlatAt(0), tr.store.Latest(g), good)
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

// TestClipScale pins the clip factor's edge cases: no clip (1) when
// clipping is off, the norm is within the bound, zero or NaN; max/norm
// otherwise.
func TestClipScale(t *testing.T) {
	for _, tc := range []struct {
		max, sumSq, want float64
	}{
		{0, 25, 1},           // clipping off
		{-1, 25, 1},          // clipping off
		{10, 25, 1},          // norm 5 below the bound
		{5, 25, 1},           // norm at the bound
		{1, 0, 1},            // zero norm
		{1, math.NaN(), 1},   // NaN norm
		{1, 25, 0.2},         // norm 5 clipped to 1
		{2, 16, 0.5},         // norm 4 clipped to 2
		{3, 100, 3.0 / 10.0}, // norm 10 clipped to 3
	} {
		h := host{&Trainer{cfg: Config{ClipNorm: tc.max}}}
		if got := h.ClipScale(tc.sumSq); got != tc.want {
			t.Errorf("ClipScale(%g) with ClipNorm %g = %g, want %g", tc.sumSq, tc.max, got, tc.want)
		}
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
	master := float64(clock.Minibatch(last))
	for g, got := range task.bwdSeen[last] {
		tau := tr.Taus()[g]
		want := master - tau
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("stage %d: corrected backward weight %g, want ≈ master−τ = %g", g+1, got, want)
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
	_, clock := runProbe(t, task, Config{
		Method: PipeMare, Stages: stages, BatchSize: batch, MicrobatchSize: micro,
		WarmupEpochs: 1,
	}, 2)
	microsPerEpoch := 4 * (batch / micro)
	for s := 0; s < microsPerEpoch; s++ { // first epoch: synchronous
		want := float64(clock.Minibatch(s))
		for g := range task.fwdSeen[s] {
			if task.fwdSeen[s][g] != want {
				t.Fatalf("warmup microbatch %d saw %g, want synchronous %g", s, task.fwdSeen[s][g], want)
			}
		}
	}
	// Second epoch: stage 1 must now see delayed versions.
	s := microsPerEpoch + 2*stages // steady-ish state inside epoch 2
	if task.fwdSeen[s][0] >= float64(clock.Minibatch(s)) {
		t.Fatal("after warmup, the first stage must see stale weights")
	}
}

// --- cost-balanced partitioning ---

func TestPartitionEvenKeepsHistoricalSplit(t *testing.T) {
	task := newProbeTask(6, 64)
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

// stallOp is one group's op in the profile test: every forward call
// sleeps base, and call number stallAt sleeps stall on top.
type stallOp struct {
	calls       int
	stallAt     int
	base, stall time.Duration
}

func (o *stallOp) Forward(*nn.Machine) {
	o.calls++
	d := o.base
	if o.calls == o.stallAt {
		d += o.stall
	}
	time.Sleep(d)
}

func (o *stallOp) Backward(*nn.Machine) {}

// profileTask runs its program on any machine: the profile pass binds
// no microbatch the probe could name.
type profileTask struct{ *probeTask }

func (profileTask) BindMicro(*nn.Machine, []int) {}

// TestProfileIgnoresAPreemptedPass: the profile partition times several
// passes, and one op stalled in one of them — the third here, as a
// preemption would — must not make its group the heaviest. Every other
// group costs 2 ms a pass; the stalled one costs nothing but its one 50 ms
// stall, which a sum over the passes would count.
func TestProfileIgnoresAPreemptedPass(t *testing.T) {
	task := profileTask{newProbeTask(4, 64)}
	stalled := &stallOp{stallAt: 3, stall: 50 * time.Millisecond}
	task.prog = stubProgram(4, func(g int) nn.Op {
		if g == 0 {
			return stalled
		}
		return &stallOp{base: 2 * time.Millisecond}
	})
	costs := measuredGroupCosts(task, task.groups, 2)
	if stalled.calls < stalled.stallAt {
		t.Fatalf("the stalled op ran %d times: its stall never happened", stalled.calls)
	}
	if heaviest := slices.Index(costs, slices.Max(costs)); heaviest == 0 {
		t.Fatalf("group costs %v: the one stalled pass made group 0 the heaviest", costs)
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
