package core

import (
	"context"
	"math"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
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

	fwdSeen [][]float64 // fwdSeen[s][g]: forward weight seen at microbatch s
	bwdSeen [][]float64 // bwdSeen[s][g]: backward weight seen at microbatch s
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

func (t *probeTask) Forward(idx []int) float64 {
	row := make([]float64, len(t.params))
	for i, p := range t.params {
		row[i] = p.Data.Data[0]
	}
	t.fwdSeen = append(t.fwdSeen, row)
	return 0.1
}

func (t *probeTask) Backward() {
	row := make([]float64, len(t.params))
	for i, p := range t.params {
		row[i] = p.BwdData().Data[0]
	}
	t.bwdSeen = append(t.bwdSeen, row)
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

func probeTrainer(t *testing.T, method Method, groups, stages, batch, micro, epochs int, t2d float64) (*probeTask, *Trainer) {
	t.Helper()
	task := newProbeTask(groups, 4*batch)
	opt := &countingOptimizer{ps: func() []*nn.Param {
		var ps []*nn.Param
		for _, g := range task.groups {
			ps = append(ps, g.Params...)
		}
		return ps
	}()}
	tr, err := New(task, opt, optim.Constant(0.1), Config{
		Method: method, Stages: stages, BatchSize: batch, MicrobatchSize: micro,
		T2D: t2d, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(context.Background(), epochs)
	return task, tr
}

func TestPipeMareForwardSeesDelayedVersions(t *testing.T) {
	const (
		groups = 6
		stages = 6
		batch  = 8
		micro  = 2 // N = 4
	)
	task, tr := probeTrainer(t, PipeMare, groups, stages, batch, micro, 3, 0)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	for s, row := range task.fwdSeen {
		for g, got := range row {
			stage1 := g + 1 // one group per stage
			want := float64(clock.FwdVersion(s, stage1))
			if got != want {
				t.Fatalf("microbatch %d stage %d: forward saw version %g, want %g", s, stage1, got, want)
			}
		}
	}
}

func TestPipeMareBackwardSeesMaster(t *testing.T) {
	task, tr := probeTrainer(t, PipeMare, 5, 5, 8, 2, 3, 0)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	for s, row := range task.bwdSeen {
		want := float64(clock.BwdVersion(s))
		for g, got := range row {
			if got != want {
				t.Fatalf("microbatch %d group %d: backward saw %g, want master version %g (τ_bkwd = 0)", s, g, got, want)
			}
		}
	}
}

func TestPipeDreamBackwardSeesStashedForwardWeights(t *testing.T) {
	task, tr := probeTrainer(t, PipeDream, 5, 5, 8, 2, 3, 0)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
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
}

func TestGPipeSeesCurrentWeightsEverywhere(t *testing.T) {
	task, tr := probeTrainer(t, GPipe, 5, 5, 8, 2, 3, 0)
	clock := pipeline.Clock{P: tr.Stages(), N: tr.Microbatches()}
	for s := range task.fwdSeen {
		want := float64(clock.BwdVersion(s)) // = committed updates before s
		for g := range task.fwdSeen[s] {
			if task.fwdSeen[s][g] != want || task.bwdSeen[s][g] != want {
				t.Fatalf("microbatch %d: GPipe saw fwd %g bwd %g, want synchronous %g",
					s, task.fwdSeen[s][g], task.bwdSeen[s][g], want)
			}
		}
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
