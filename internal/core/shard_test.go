package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/metrics"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/transport"
)

// repTask is a minimal Replicable task for exercising the replica-sharded
// trainer construction: one multi-scalar parameter per group, one inert op
// per group.
type repTask struct {
	groups   []pipeline.ParamGroup
	prog     *nn.Program
	numTrain int
}

func newRepTask(groups, numTrain int) *repTask {
	t := &repTask{numTrain: numTrain}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("rep", 2)
		t.groups = append(t.groups, pipeline.ParamGroup{Name: "g", Params: []*nn.Param{p}})
	}
	t.prog = stubProgram(groups, func(int) nn.Op { return inertOp{} })
	return t
}

// inertOp reports a constant loss and leaves the gradients alone.
type inertOp struct{}

func (inertOp) Forward(m *nn.Machine) { m.Loss = 0.1 }
func (inertOp) Backward(*nn.Machine)  {}

func (t *repTask) Groups() []pipeline.ParamGroup { return t.groups }
func (t *repTask) NumTrain() int                 { return t.numTrain }
func (t *repTask) Program() *nn.Program          { return t.prog }
func (t *repTask) BindMicro(*nn.Machine, []int)  {}
func (t *repTask) EvalTest() float64             { return 0 }
func (t *repTask) CloneTask() Task               { return newRepTask(len(t.groups), t.numTrain) }

func repParams(t *repTask) []*nn.Param {
	var ps []*nn.Param
	for _, g := range t.groups {
		ps = append(ps, g.Params...)
	}
	return ps
}

// captureFollowers returns a Config.Followers factory that builds the
// in-process followers New would have built itself from the leader's
// optimizer and config, recording each follower trainer in out — the
// replica group keeps its members to itself.
func captureFollowers(task Replicable, opt optim.Optimizer, cfg Config, out *[]*Trainer) func(transport.Spec) (replica.Member, error) {
	return func(spec transport.Spec) (replica.Member, error) {
		m, err := NewFollower(task.CloneTask(), opt, optim.Constant(0.1), cfg, spec)
		if err != nil {
			return nil, err
		}
		*out = append(*out, m.(host).t)
		return m, nil
	}
}

// stageShard maps replica r's stage shard under the initial R-way commit
// plan to its optimizer parameter range.
func stageShard(tr *Trainer, replicas, r int) optim.Shard {
	lo, hi := engine.NewCommitPlan(tr.Stages(), replicas).Shard(r)
	if lo == hi {
		return optim.Shard{}
	}
	return optim.Shard{Lo: tr.stageLo[lo], Hi: tr.stageHi[hi-1]}
}

// TestFollowersHoldOnlyTheirOptimizerShard pins the memory half of the
// sharded commit: without fault tolerance, follower r's
// optimizer holds moment state exactly for the parameter range of its
// stage shard — contiguous, disjoint, and jointly covering, with the
// leader's shard, every parameter exactly once.
func TestFollowersHoldOnlyTheirOptimizerShard(t *testing.T) {
	const groups, stages, replicas = 10, 5, 3
	task := newRepTask(groups, 64)
	var followers []*Trainer
	opt := optim.NewSGD(repParams(task), 0.9, 0)
	cfg := Config{Stages: stages, BatchSize: 16, MicrobatchSize: 4, Replicas: replicas, Seed: 1}
	cfg.Followers = captureFollowers(task, opt, cfg, &followers)
	tr, err := New(task, opt, optim.Constant(0.1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, groups)
	markShard := func(sh optim.Shard) {
		for i := sh.Lo; i < sh.Hi; i++ {
			covered[i]++
		}
	}
	markShard(stageShard(tr, replicas, 0)) // the leader's own shard
	for r, f := range followers {
		got := f.opt.StateRange()
		want := stageShard(tr, replicas, r+1)
		if got != want {
			t.Fatalf("follower %d holds state for %+v, want its stage shard's params %+v", r+1, got, want)
		}
		markShard(got)
	}
	for i, k := range covered {
		if k != 1 {
			t.Fatalf("param %d covered by %d optimizer shards, want exactly 1", i, k)
		}
	}

	// More replicas than stages: the surplus replicas own nothing and
	// hold no state.
	task2 := newRepTask(4, 64)
	var followers2 []*Trainer
	opt2 := optim.NewSGD(repParams(task2), 0.9, 0)
	cfg2 := Config{Stages: 2, BatchSize: 16, MicrobatchSize: 4, Replicas: 4, Seed: 1}
	cfg2.Followers = captureFollowers(task2, opt2, cfg2, &followers2)
	if _, err := New(task2, opt2, optim.Constant(0.1), cfg2); err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 3; r++ {
		if sh := followers2[r-1].opt.StateRange(); sh.Len() != 0 {
			t.Fatalf("surplus replica %d holds state for %+v, want nothing", r, sh)
		}
	}
}

// TestImpliedFaultToleranceMirrorsMoments pins the one fault-tolerance
// rule: with R > 1, a checkpoint, elastic membership or straggler demotion
// each make every follower hold the optimizer moments of every parameter
// (so any survivor can own any stage), without FaultTolerant being set;
// and a fault-tolerant leader refuses an optimizer that holds only a shard.
func TestImpliedFaultToleranceMirrorsMoments(t *testing.T) {
	base := Config{Stages: 3, BatchSize: 16, MicrobatchSize: 4, Replicas: 2, Seed: 1}
	for name, mut := range map[string]func(*Config){
		"checkpoint": func(c *Config) { c.CheckpointDir = t.TempDir() },
		"elastic":    func(c *Config) { c.Elastic = true },
		"straggler":  func(c *Config) { c.StragglerDeadline, c.StragglerMisses = time.Second, 2 },
	} {
		task := newRepTask(6, 64)
		var followers []*Trainer
		opt := optim.NewSGD(repParams(task), 0.9, 0)
		cfg := base
		mut(&cfg)
		cfg.Followers = captureFollowers(task, opt, cfg, &followers)
		if _, err := New(task, opt, optim.Constant(0.1), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sh := followers[0].opt.StateRange(); sh != optim.FullShard(6) {
			t.Fatalf("%s: follower holds moment state for %+v, want every parameter", name, sh)
		}
	}
	task := newRepTask(6, 64)
	cfg := base
	cfg.FaultTolerant = true
	if _, err := New(task, optim.NewSGDShard(repParams(task), 0.9, 0, optim.Shard{Hi: 2}), optim.Constant(0.1), cfg); err == nil ||
		!strings.Contains(err.Error(), "every parameter") {
		t.Fatalf("fault-tolerant leader over a shard optimizer: err = %v", err)
	}
}

// TestEveryRingKeepsTheLeadersClock pins the one clock: the step count is
// every ring's newest version, on every member. An R = 3 fault-tolerant
// group trains two epochs, and its checkpoint restores into an R = 2
// group that trains two more; after the restore's handoff and at every
// epoch end, every ring of every member — leader and in-process
// followers — ends at the leader's step count, which is 4 per epoch.
func TestEveryRingKeepsTheLeadersClock(t *testing.T) {
	const stages = 3
	build := func(replicas int) (*Trainer, []*Trainer) {
		task := newRepTask(6, 64) // 4 minibatches per epoch
		var followers []*Trainer
		opt := optim.NewAdamW(repParams(task), 0.9, 0.98, 1e-9, 0)
		cfg := Config{Stages: stages, BatchSize: 16, MicrobatchSize: 4, Replicas: replicas, FaultTolerant: true, Seed: 1}
		cfg.Followers = captureFollowers(task, opt, cfg, &followers)
		tr, err := New(task, opt, optim.Constant(0.1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, followers
	}
	check := func(when string, tr *Trainer, followers []*Trainer, want int) {
		t.Helper()
		if tr.steps() != want {
			t.Fatalf("%s: the leader is at step %d, want %d", when, tr.steps(), want)
		}
		for r, m := range append([]*Trainer{tr}, followers...) {
			for s := range stages {
				if got := m.store.Latest(s); got != want {
					t.Fatalf("%s: replica %d's stage-%d ring ends at version %d, the leader's step count is %d", when, r, s, got, want)
				}
			}
		}
	}
	run := func(tr *Trainer, followers []*Trainer, epochs, from int) {
		t.Helper()
		tr.Observe(func(epoch int, _ *metrics.Run) {
			check(fmt.Sprintf("epoch %d", from+epoch), tr, followers, 4*(from+epoch))
		})
		if _, err := tr.Run(context.Background(), epochs); err != nil {
			t.Fatal(err)
		}
	}
	tr3, followers3 := build(3)
	defer tr3.Close()
	run(tr3, followers3, 2, 0)
	path, err := tr3.WriteCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr2, followers2 := build(2)
	defer tr2.Close()
	if err := tr2.RestoreFrom(path); err != nil {
		t.Fatal(err)
	}
	check("after the restore", tr2, followers2, 8)
	run(tr2, followers2, 2, 2)
}

// brokenClone is a repTask whose clones build another model: the first
// parameter of a clone has three elements, not two.
type brokenClone struct{ *repTask }

func (b brokenClone) CloneTask() Task {
	c := newRepTask(len(b.groups), b.numTrain)
	c.groups[0].Params[0] = nn.NewParam("rep", 3)
	return c
}

// TestBrokenCloneFailsNew pins the launch handoff's refusal in process: an
// in-process follower enters like any other, through the state handoff, so
// a CloneTask whose stage layout differs fails New with an error naming
// the stage and tensor — not a panic, and not a follower training from
// state of another shape.
func TestBrokenCloneFailsNew(t *testing.T) {
	task := brokenClone{newRepTask(4, 64)}
	_, err := New(task, optim.NewSGD(repParams(task.repTask), 0.9, 0), optim.Constant(0.1), Config{
		Stages: 2, BatchSize: 16, MicrobatchSize: 4, Replicas: 2, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "stage 0 tensor 0 shape [2], want [3]") {
		t.Fatalf("New over a broken clone: err = %v, want the handoff's refusal of stage 0 tensor 0", err)
	}
}
