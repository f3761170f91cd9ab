package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// driftTask trains one three-element weight vector per group toward
// fixed targets: each element's gradient is its backward weight less its
// target, so every update moves the masters, δ and the corrected weights.
type driftTask struct {
	groups []pipeline.ParamGroup
	prog   *nn.Program
}

func newDriftTask(groups int) *driftTask {
	t := &driftTask{}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("drift", 3)
		for k := 0; k < 3; k++ {
			p.Data.SetFlat(k, float64(g-k)/3)
		}
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	t.prog = stubProgram(groups, func(g int) nn.Op { return driftOp{t.groups[g].Params[0], g} })
	return t
}

func (t *driftTask) Groups() []pipeline.ParamGroup { return t.groups }
func (t *driftTask) NumTrain() int                 { return 16 }
func (t *driftTask) Program() *nn.Program          { return t.prog }
func (t *driftTask) BindMicro(*nn.Machine, []int)  {}
func (t *driftTask) EvalTest() float64             { return 0 }
func (t *driftTask) CloneTask() Task               { return newDriftTask(len(t.groups)) }

func (t *driftTask) params() []*nn.Param {
	var ps []*nn.Param
	for _, g := range t.groups {
		ps = append(ps, g.Params...)
	}
	return ps
}

// driftOp is group g's op: loss ½Σ(w_k − k)² over the forward weights,
// gradient w_k − (k + g) over the backward weights.
type driftOp struct {
	p *nn.Param
	g int
}

func (o driftOp) Forward(m *nn.Machine) {
	for k := 0; k < o.p.Data.Size(); k++ {
		d := o.p.Data.FlatAt(k) - float64(k)
		m.Loss += 0.5 * d * d
	}
}

func (o driftOp) Backward(*nn.Machine) {
	w := o.p.BwdData()
	for k := 0; k < o.p.Grad.Size(); k++ {
		o.p.Grad.SetFlat(k, o.p.Grad.FlatAt(k)+w.FlatAt(k)-float64(k+o.g))
	}
}

func (driftOp) Regs() ([]nn.Reg, nn.Reg) { return nil, -1 }

// checkDerived holds the two facts a stage record leaves the masters and
// the corrected weights out on: each stage's masters are bitwise its
// ring's newest version, and under T2 each corrected weight is bitwise
// masters + (−τ)·δ (tensor.Axpy), the importer's recomputation.
func checkDerived(t *testing.T, tr *Trainer, where string) {
	t.Helper()
	bits := func(x *tensor.Tensor) []byte { return transport.AppendTensors(nil, []*tensor.Tensor{x}) }
	for s := 0; s < tr.clock.P; s++ {
		lo := tr.stageLo[s]
		for j, w := range tr.store.Get(s, tr.store.Latest(s)) {
			i := lo + j
			if !bytes.Equal(bits(tr.masters[i]), bits(w)) {
				t.Fatalf("%s: stage %d master %d is %v, its ring's newest version %d holds %v", where, s, i, tr.masters[i], tr.store.Latest(s), w)
			}
			if tr.delta == nil {
				continue
			}
			want := tr.masters[i].Clone()
			tensor.Axpy(want, -tr.taus[i], tr.delta[i])
			if !bytes.Equal(bits(tr.corrected[i]), bits(want)) {
				t.Fatalf("%s: stage %d corrected %d is %v, masters − τ·δ is %v", where, s, i, tr.corrected[i], want)
			}
		}
	}
}

// TestMastersAndCorrectedAreDerived pins both facts at every stream
// boundary of multi-epoch runs — the stream loop of RunInto, checked
// after each stream — under PipeMare with T2 (with and without
// recompute, float32 too, and with T3 warmup), PipeDream, GPipe with T2
// and T3 warmup, and at R = 2 on the leader and its in-process follower,
// from the follower's launch handoff on.
func TestMastersAndCorrectedAreDerived(t *testing.T) {
	base := Config{Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2, T1K: 4, T2D: 0.3, Seed: 3}
	cases := []struct {
		name     string
		dtype    tensor.DType
		edit     func(*Config)
		replicas bool
	}{
		{"pipemare-t2", tensor.Float64, func(*Config) {}, false},
		{"pipemare-t2-f32", tensor.Float32, func(*Config) {}, false},
		{"pipemare-t2-recompute", tensor.Float64, func(c *Config) { c.RecomputeSegments = 2 }, false},
		{"pipemare-t2-warmup", tensor.Float64, func(c *Config) { c.WarmupEpochs = 1 }, false},
		{"pipedream", tensor.Float64, func(c *Config) { c.Method, c.T2D = PipeDream, 0 }, false},
		{"gpipe-t2-warmup", tensor.Float64, func(c *Config) { c.Method, c.WarmupEpochs = GPipe, 1 }, false},
		{"pipemare-t2-R2", tensor.Float64, func(c *Config) { c.Replicas, c.FaultTolerant = 2, true }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			task := newDriftTask(6)
			for _, p := range task.params() {
				p.CastTo(tc.dtype)
			}
			opt := optim.NewAdamW(task.params(), 0.9, 0.98, 1e-9, 1e-2)
			cfg := base
			tc.edit(&cfg)
			var followers []*Trainer
			if tc.replicas {
				cfg.Followers = captureFollowers(task, opt, cfg, &followers)
			}
			tr, err := New(task, opt, optim.Constant(0.05), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tc.replicas && len(followers) != 1 {
				t.Fatalf("%d in-process followers, want 1", len(followers))
			}
			check := func(where string) {
				t.Helper()
				checkDerived(t, tr, "leader "+where)
				for r, f := range followers {
					checkDerived(t, f, fmt.Sprintf("follower %d %s", r+1, where))
				}
			}
			check("after the handoff")
			for e := 0; e < 4; e++ {
				for mbs := tr.epochLeft(); len(mbs) > 0; {
					losses, err := tr.stream(ctx, mbs[:tr.streamLen(len(mbs))])
					if err != nil {
						t.Fatal(err)
					}
					mbs = mbs[len(losses):]
					check(fmt.Sprintf("at step %d", tr.steps()))
				}
			}
			if tr.steps() != 8 {
				t.Fatalf("trained %d steps, want 8", tr.steps())
			}
		})
	}
}
