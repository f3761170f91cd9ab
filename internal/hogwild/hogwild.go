// Package hogwild implements the Appendix E extension of PipeMare:
// Hogwild!-style asynchronous training where each stage's gradient is
// computed entirely on weights with a stochastic, stage-specific delay
// drawn from a truncated exponential distribution (the maximum-entropy
// delay model of Mitliagkas et al.), with and without the paper's T1
// learning-rate rescheduling.
package hogwild

import (
	"fmt"
	"math"
	"math/rand"

	"pipemare/internal/data"
	"pipemare/internal/metrics"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// Task is the trained task; it matches core.Task.
type Task interface {
	Groups() []pipeline.ParamGroup
	NumTrain() int
	Program() *nn.Program
	BindMicro(m *nn.Machine, idx []int)
	EvalTest() float64
}

// Config configures a Hogwild!-style run.
type Config struct {
	Stages    int     // 0 = one stage per weight group
	BatchSize int     // minibatch size (no microbatching: delays are per update)
	TauMax    int     // truncation of the exponential delay distribution
	MeanScale float64 // stage i (1-indexed) has mean delay MeanScale·(P−i+1)/P·TauMax... see MeanDelay
	T1K       int     // T1 annealing steps (0 disables)
	ClipNorm  float64
	LossCap   float64
	Seed      int64
}

// Trainer runs Hogwild!-style asynchronous SGD.
type Trainer struct {
	task  Task
	opt   optim.Optimizer
	sched optim.Schedule
	cfg   Config

	part   *pipeline.Partition
	store  *pipeline.VersionStore
	prog   *nn.Program
	mach   *nn.Machine // the one minibatch in flight: no microbatching, no overlap
	params []*nn.Param
	stage1 []int
	means  []float64 // per-stage mean delay
	taus   []float64 // per-param expected delay (for T1)

	rng      *rand.Rand
	step     int
	diverged bool
}

// MeanDelay returns the mean of stage i's (1-indexed) delay distribution:
// earlier stages see longer delays, scaled so the first stage's mean is
// MeanScale·TauMax and the last stage's approaches MeanScale·TauMax/P.
func MeanDelay(stage1, p, tauMax int, meanScale float64) float64 {
	return meanScale * float64(tauMax) * float64(p-stage1+1) / float64(p)
}

// New builds a Hogwild trainer.
func New(task Task, opt optim.Optimizer, sched optim.Schedule, cfg Config) (*Trainer, error) {
	groups := task.Groups()
	p := cfg.Stages
	if p == 0 {
		p = len(groups)
	}
	part, err := pipeline.PartitionGroups(groups, p)
	if err != nil {
		return nil, err
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("hogwild: batch size must be positive")
	}
	if cfg.TauMax <= 0 {
		return nil, fmt.Errorf("hogwild: TauMax must be positive")
	}
	if cfg.MeanScale <= 0 {
		cfg.MeanScale = 0.5
	}
	if cfg.LossCap == 0 {
		cfg.LossCap = 1e6
	}
	t := &Trainer{
		task: task, opt: opt, sched: sched, cfg: cfg,
		part: part,
		prog: task.Program(),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	t.params = part.Params()
	t.mach = nn.NewMachine(t.prog.NumRegs)
	if len(t.params) > 0 {
		t.mach.Tape.SetDType(t.params[0].Data.DType())
	}
	for s, ps := range part.Stages {
		for range ps {
			t.stage1 = append(t.stage1, s+1)
		}
	}
	t.means = make([]float64, p)
	for i1 := 1; i1 <= p; i1++ {
		t.means[i1-1] = MeanDelay(i1, p, cfg.TauMax, cfg.MeanScale)
	}
	t.taus = make([]float64, len(t.params))
	for i := range t.params {
		t.taus[i] = t.means[t.stage1[i]-1]
	}
	t.store = pipeline.NewVersionStore(part.Stages, cfg.TauMax+2)
	return t, nil
}

// sampleDelay draws an integer delay from Exp(mean) truncated at TauMax.
func (t *Trainer) sampleDelay(mean float64) int {
	d := int(t.rng.ExpFloat64() * mean)
	if d > t.cfg.TauMax {
		d = t.cfg.TauMax
	}
	return d
}

// Diverged reports whether training was aborted.
func (t *Trainer) Diverged() bool { return t.diverged }

// Taus returns the per-parameter expected delays used by T1.
func (t *Trainer) Taus() []float64 { return t.taus }

// TrainEpochs runs the Hogwild simulation, recording one entry per epoch.
func (t *Trainer) TrainEpochs(epochs int, run *metrics.Run) *metrics.Run {
	if run == nil {
		run = &metrics.Run{}
	}
	masters := make([]*tensor.Tensor, len(t.params))
	for i, pm := range t.params {
		masters[i] = pm.Data
	}
	for e := 0; e < epochs; e++ {
		epochLoss, batches := 0.0, 0
		for _, batch := range data.Batches(t.task.NumTrain(), t.cfg.BatchSize, t.rng) {
			if len(batch) < t.cfg.BatchSize {
				continue
			}
			// Sample one delay per stage; the whole gradient (forward and
			// backward) is computed on the stale snapshot w_{t−τ_i}.
			cur := t.store.Latest(0)
			delays := make([]int, len(t.means))
			for s := range delays {
				delays[s] = t.sampleDelay(t.means[s])
			}
			for i, pm := range t.params {
				st := t.stage1[i] - 1
				v := cur - delays[st]
				if v < 0 {
					v = 0
				}
				pm.Data = snapOf(t.store.Get(st, v), t.part.Stages[st], pm)
			}
			t.mach.ResetRun()
			t.task.BindMicro(t.mach, batch)
			t.prog.ForwardRange(t.mach, 0, len(t.prog.Ops))
			loss := t.mach.Loss
			if math.IsNaN(loss) || loss > t.cfg.LossCap {
				for i, pm := range t.params {
					pm.Data = masters[i]
				}
				run.Record(math.Inf(1), 0, nn.ParamNorm(t.params))
				run.Diverged = true
				t.diverged = true
				return run
			}
			t.prog.BackwardRange(t.mach, 0, len(t.prog.Ops))
			for i, pm := range t.params {
				pm.Data = masters[i]
			}
			if t.cfg.ClipNorm > 0 {
				nn.ClipGradNorm(t.params, t.cfg.ClipNorm)
			}
			t.opt.Step(t.learningRates())
			nn.ZeroGrads(t.params)
			t.store.Push()
			t.step++
			epochLoss += loss
			batches++
		}
		run.Record(epochLoss/float64(batches), t.task.EvalTest(), nn.ParamNorm(t.params))
	}
	return run
}

// learningRates applies T1 with the per-stage expected delays.
func (t *Trainer) learningRates() []float64 {
	out := make([]float64, len(t.params))
	optim.T1Rates(out, t.taus, t.sched.LR(t.step), t.step, t.cfg.T1K)
	return out
}

// snapOf finds pm's snapshot within its stage.
func snapOf(snap []*tensor.Tensor, stage []*nn.Param, pm *nn.Param) *tensor.Tensor {
	for j, q := range stage {
		if q == pm {
			return snap[j]
		}
	}
	panic("hogwild: parameter not found in its stage")
}
