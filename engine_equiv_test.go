package pipemare_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/tensor"
)

// quadTask is a multi-stage quadratic model: group g holds a small weight
// vector w_g and the loss on sample i is Σ_g ½·λ_g·‖w_g − t_i[g]‖², the
// pipeline analogue of the §3 quadratic stability model. It compiles to
// one op per group, whose forward reads the weights its own stage's slot
// installed and whose backward accumulates λ_g times the residual that
// forward saw — so the task exercises the trainer's weight-version
// machinery exactly like a real network, with as many microbatches in
// flight as the engine keeps.
type quadTask struct {
	groups []pipemare.ParamGroup
	params []*nn.Param
	prog   *nn.Program
	lambda []float64
	train  [][]float64 // train[i][g]: target of group g on sample i
	test   [][]float64

	nTrain, nTest int // ctor args, kept for CloneTask
	seed          int64
}

func newQuadTask(groups, train, test int, seed int64) *quadTask {
	rng := rand.New(rand.NewSource(seed))
	t := &quadTask{prog: &nn.Program{}, nTrain: train, nTest: test, seed: seed}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("q", 2)
		p.Data.SetFlat(0, rng.NormFloat64())
		p.Data.SetFlat(1, rng.NormFloat64())
		t.params = append(t.params, p)
		t.groups = append(t.groups, pipemare.ParamGroup{Name: "q", Params: []*nn.Param{p}})
		t.lambda = append(t.lambda, 0.5+rng.Float64())
		t.prog.Ops = append(t.prog.Ops, quadOp{t, g})
		t.prog.GroupOf = append(t.prog.GroupOf, g)
	}
	gen := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, groups)
			for g := range out[i] {
				out[i][g] = rng.NormFloat64()
			}
		}
		return out
	}
	t.train, t.test = gen(train), gen(test)
	return t
}

func (t *quadTask) Groups() []pipemare.ParamGroup { return t.groups }
func (t *quadTask) NumTrain() int                 { return len(t.train) }
func (t *quadTask) Program() *nn.Program          { return t.prog }

// BindMicro hands the machine the microbatch's sample indices; the ops
// look their targets up themselves.
func (t *quadTask) BindMicro(m *nn.Machine, idx []int) {
	m.Labels = append(m.Labels[:0], idx...)
}

// CloneTask makes quadTask Replicable.
func (t *quadTask) CloneTask() pipemare.Task {
	return newQuadTask(len(t.groups), t.nTrain, t.nTest, t.seed)
}

// addLoss adds group g's share of the mean loss over the indexed samples
// of set to *loss, term by term, and returns the group's mean residuals.
func (t *quadTask) addLoss(loss *float64, g int, set [][]float64, idx []int) (r [2]float64) {
	w := tensor.F64(t.params[g].Data)
	for _, i := range idx {
		d0 := w[0] - set[i][g]
		d1 := w[1] - set[i][g]
		*loss += 0.5 * t.lambda[g] * (d0*d0 + d1*d1) / float64(len(idx))
		r[0] += d0 / float64(len(idx))
		r[1] += d1 / float64(len(idx))
	}
	return r
}

// quadOp is group g's op.
type quadOp struct {
	t *quadTask
	g int
}

// Forward adds the group's loss over the installed forward weights and
// saves the residuals for the backward slot.
func (o quadOp) Forward(m *nn.Machine) {
	m.Tape.Push(o.t.addLoss(&m.Loss, o.g, o.t.train, m.Labels))
}

// Backward accumulates the group's gradient from the saved residuals.
func (o quadOp) Backward(m *nn.Machine) {
	r := m.Tape.Pop().([2]float64)
	grad := tensor.F64(o.t.params[o.g].Grad)
	grad[0] += o.t.lambda[o.g] * r[0]
	grad[1] += o.t.lambda[o.g] * r[1]
}

func (t *quadTask) EvalTest() float64 {
	idx := make([]int, len(t.test))
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for g := range t.params {
		t.addLoss(&loss, g, t.test, idx)
	}
	return 100 / (1 + loss)
}

// trainPair runs the same configuration under the Reference and concurrent
// engines and returns both curves.
func trainPair(t *testing.T, build func() pipemare.Task, epochs int, opts ...pipemare.Option) (ref, conc *pipemare.Run) {
	t.Helper()
	run := func(eng pipemare.Engine) *pipemare.Run {
		tr, err := pipemare.New(build(), append(opts, pipemare.WithEngine(eng))...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := tr.Run(context.Background(), epochs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return run(pipemare.NewReferenceEngine()), run(concurrent.New())
}

// requireIdentical asserts two curves match bit for bit: the concurrent
// engine must not perturb a single floating-point operation.
func requireIdentical(t *testing.T, name string, ref, conc *pipemare.Run) {
	t.Helper()
	if ref.Epochs() != conc.Epochs() || ref.Diverged != conc.Diverged {
		t.Fatalf("%s: curves differ in shape: reference %d epochs (diverged=%v), concurrent %d epochs (diverged=%v)",
			name, ref.Epochs(), ref.Diverged, conc.Epochs(), conc.Diverged)
	}
	for e := 0; e < ref.Epochs(); e++ {
		if ref.Loss[e] != conc.Loss[e] {
			t.Fatalf("%s epoch %d: loss %v (reference) != %v (concurrent)", name, e+1, ref.Loss[e], conc.Loss[e])
		}
		if ref.Metric[e] != conc.Metric[e] {
			t.Fatalf("%s epoch %d: metric %v (reference) != %v (concurrent)", name, e+1, ref.Metric[e], conc.Metric[e])
		}
		if ref.ParamNorm[e] != conc.ParamNorm[e] {
			t.Fatalf("%s epoch %d: param norm %v (reference) != %v (concurrent)", name, e+1, ref.ParamNorm[e], conc.ParamNorm[e])
		}
	}
}

func methodOpts(m pipemare.Method) []pipemare.Option {
	opts := []pipemare.Option{pipemare.WithMethod(m), pipemare.WithSeed(11)}
	if m == pipemare.PipeMare {
		// Enable every technique so the whole install/commit surface is
		// compared: T1, T2, T3 warmup, clipping and recompute.
		opts = append(opts, pipemare.WithT1(12), pipemare.WithT2(0.3),
			pipemare.WithT3(1), pipemare.WithClipNorm(2), pipemare.WithRecompute(2))
	}
	return opts
}

func TestEnginesEquivalentOnQuadratic(t *testing.T) {
	for _, m := range []pipemare.Method{pipemare.GPipe, pipemare.PipeDream, pipemare.PipeMare} {
		build := func() pipemare.Task { return newQuadTask(6, 64, 16, 5) }
		opts := append(methodOpts(m),
			pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
			pipemare.WithSchedule(optim.Constant(0.05)))
		ref, conc := trainPair(t, build, 6, opts...)
		requireIdentical(t, "quadratic/"+m.String(), ref, conc)
	}
}

func TestEnginesEquivalentOnSmallDNN(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 32, Noise: 0.4, Seed: 1})
	for _, m := range []pipemare.Method{pipemare.GPipe, pipemare.PipeDream, pipemare.PipeMare} {
		build := func() pipemare.Task { return model.NewResNetMLP(images, 8, 4, 3) }
		opts := append(methodOpts(m),
			pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
			pipemare.WithSchedule(optim.Constant(0.05)))
		ref, conc := trainPair(t, build, 3, opts...)
		requireIdentical(t, "dnn/"+m.String(), ref, conc)
	}
}

func TestEnginesEquivalentOnTransformer(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	opts := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}))
	ref, conc := trainPair(t, build, 2, opts...)
	requireIdentical(t, "transformer/PipeMare", ref, conc)
}

// TestEnginesEquivalentUnderOverlapStress drives the pipelined engine at
// its deepest overlap: a stage-split task with N ≫ P microbatches in
// flight per minibatch and the Appendix D recompute climb on every chain,
// so each stage worker continuously interleaves forward, recompute and
// backward slots of different microbatches. The curves must still match
// the serial Reference engine bit for bit.
func TestEnginesEquivalentUnderOverlapStress(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 6})
	for _, m := range []pipemare.Method{pipemare.PipeDream, pipemare.PipeMare} {
		build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 4, 8) }
		opts := append(methodOpts(m),
			pipemare.WithStages(4),
			pipemare.WithBatchSize(32), pipemare.WithMicrobatches(16),
			pipemare.WithSchedule(optim.Constant(0.05)))
		if m == pipemare.PipeDream {
			opts = append(opts, pipemare.WithRecompute(2))
		}
		ref, conc := trainPair(t, build, 3, opts...)
		requireIdentical(t, "overlap-stress/"+m.String(), ref, conc)
	}
}

// TestEnginesEquivalentOnSplitDivergence pins the abort path under
// overlap: when a microbatch's loss blows past the cap mid-epoch with
// several stage-split chains in flight, the concurrent engine must drain,
// restore and record exactly the Reference curve.
func TestEnginesEquivalentOnSplitDivergence(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 8})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 3, 9) }
	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(8),
		pipemare.WithSeed(4), pipemare.WithLossCap(15),
		pipemare.WithRecompute(2),
		pipemare.WithSchedule(optim.Constant(8)), // absurd rate: diverges
	}
	ref, conc := trainPair(t, build, 4, opts...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	requireIdentical(t, "split-divergence", ref, conc)
}

// TestConcurrentEngineSurvivesRepeatedRuns pins the Lifecycle contract:
// the same engine instance must restart cleanly across Run calls and
// trainers.
func TestConcurrentEngineSurvivesRepeatedRuns(t *testing.T) {
	eng := concurrent.New(concurrent.WithWorkers(2))
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	tr, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(3), pipemare.WithEngine(eng),
		pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	run := &pipemare.Run{}
	for i := 0; i < 3; i++ {
		if _, err := tr.RunInto(context.Background(), 2, run); err != nil {
			t.Fatal(err)
		}
	}
	if run.Epochs() != 6 {
		t.Fatalf("chunked runs recorded %d epochs, want 6", run.Epochs())
	}
	eng.Stop() // idempotent: already stopped at the end of each Run
	// The same instance must also serve a second trainer.
	tr2, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(2),
		pipemare.WithEngine(eng), pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEngineDetectsDivergence pins that divergence aborts and
// restores masters identically under both engines.
func TestEnginesEquivalentOnDivergence(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 7) }
	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(2), pipemare.WithLossCap(10),
		pipemare.WithSchedule(optim.Constant(5)), // absurd rate: diverges
	}
	ref, conc := trainPair(t, build, 4, opts...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	requireIdentical(t, "divergence", ref, conc)
}

// --- work-stealing scheduler × partition-mode grid ---

// workersGrid returns the worker counts the scheduler-grid equivalence
// tests cover: {1, 2, P} by default (one worker = fully serial stealing,
// two = constant contention, P = one worker per stage like the old
// engine). PIPEMARE_WORKERS narrows the grid to one cell for the CI
// matrix.
func workersGrid(p int) []int {
	if v := os.Getenv("PIPEMARE_WORKERS"); v != "" {
		w, err := strconv.Atoi(v)
		if err != nil || w < 1 {
			panic("bad PIPEMARE_WORKERS: " + v)
		}
		return []int{w}
	}
	ws := []int{1, 2}
	if p > 2 {
		ws = append(ws, p)
	}
	return ws
}

// TestEnginesEquivalentAcrossSchedulerGrid pins the tentpole determinism
// claim: for every worker count W and partition mode, the work-stealing
// engine — sharded StepStage commit included — produces curves
// bit-identical to the serial Reference engine under the same partition.
// Covers the stage-split DNN with every PipeMare technique on, and the
// transformer (AdamW, stage boundaries inside attention blocks).
func TestEnginesEquivalentAcrossSchedulerGrid(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 32, Noise: 0.4, Seed: 1})
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	cases := []struct {
		name   string
		p      int
		epochs int
		build  func() pipemare.Task
		opts   []pipemare.Option
	}{
		{
			name: "dnn", p: 4, epochs: 3,
			build: func() pipemare.Task { return model.NewResNetMLP(images, 8, 4, 3) },
			opts: append(methodOpts(pipemare.PipeMare),
				pipemare.WithStages(4),
				pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
				pipemare.WithSchedule(optim.Constant(0.05))),
		},
		{
			name: "transformer", p: 8, epochs: 2,
			build: func() pipemare.Task {
				return model.NewTranslation(ds, model.TransformerConfig{
					Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
			},
			opts: append(methodOpts(pipemare.PipeMare),
				pipemare.WithStages(8),
				pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
				pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
					return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
				}),
				pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20})),
		},
	}
	for _, tc := range cases {
		for _, mode := range []pipemare.PartitionMode{pipemare.PartitionEven, pipemare.PartitionCost} {
			opts := append(append([]pipemare.Option{}, tc.opts...), pipemare.WithPartition(mode))
			ref := runCurve(t, tc.build, tc.epochs, 1,
				append(append([]pipemare.Option{}, opts...), pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
			for _, w := range workersGrid(tc.p) {
				// The facade constructor is the public face of the
				// scheduler: NewConcurrentEngine(w) ≡ concurrent.New(WithWorkers(w)).
				conc := runCurve(t, tc.build, tc.epochs, 1,
					append(append([]pipemare.Option{}, opts...),
						pipemare.WithEngine(pipemare.NewConcurrentEngine(w)))...)
				requireIdentical(t, fmt.Sprintf("%s/%s/W=%d", tc.name, mode, w), ref, conc)
			}
		}
	}
}

// TestEnginesEquivalentOnDivergenceUnderStealing pins the abort path with
// fewer workers than stages and a cost-balanced partition: the draining,
// restore and recorded curve must still match Reference exactly.
func TestEnginesEquivalentOnDivergenceUnderStealing(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 8})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 3, 9) }
	opts := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithPartition(pipemare.PartitionCost),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(8),
		pipemare.WithSeed(4), pipemare.WithLossCap(15),
		pipemare.WithRecompute(2),
		pipemare.WithSchedule(optim.Constant(8)), // absurd rate: diverges
	}
	ref := runCurve(t, build, 4, 1,
		append(append([]pipemare.Option{}, opts...), pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	conc := runCurve(t, build, 4, 1,
		append(append([]pipemare.Option{}, opts...),
			pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(2))))...)
	requireIdentical(t, "stealing-divergence/W=2", ref, conc)
}

// TestProfilePartitionMode pins the measured-cost path: a profile-mode
// trainer builds, trains, and its DP split is at least as balanced (under
// its own measured costs) as the even split; feeding the measured costs
// back through WithGroupCosts reproduces the partition exactly and gives
// bit-identical Reference/concurrent curves — the deterministic way to
// pin a profiled partition across trainers.
func TestProfilePartitionMode(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(11),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}),
	}
	prof, err := pipemare.New(build(),
		append(append([]pipemare.Option{}, base...), pipemare.WithPartition(pipemare.PartitionProfile))...)
	if err != nil {
		t.Fatal(err)
	}
	if prof.PartitionMode() != pipemare.PartitionProfile {
		t.Fatalf("mode = %v", prof.PartitionMode())
	}
	costs := prof.GroupCosts()
	for g, c := range costs {
		if c <= 0 {
			t.Fatalf("measured cost of group %d is %g, want > 0", g, c)
		}
	}
	// DP optimality: the profiled split's bottleneck can't exceed even's
	// under the same measured costs.
	evenPart, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	profMax, evenMax := 0.0, 0.0
	for _, c := range prof.StageCosts() {
		if c > profMax {
			profMax = c
		}
	}
	for _, c := range evenPart.Partition().StageCosts(costs) {
		if c > evenMax {
			evenMax = c
		}
	}
	if profMax > evenMax {
		t.Fatalf("profiled bottleneck %g worse than even %g", profMax, evenMax)
	}
	if _, err := prof.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	// Pinned measured costs: identical partitions and bit-identical curves
	// across engines.
	pinned := append(append([]pipemare.Option{}, base...),
		pipemare.WithPartition(pipemare.PartitionProfile), pipemare.WithGroupCosts(costs))
	refTr, err := pipemare.New(build(), append(append([]pipemare.Option{}, pinned...),
		pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	if err != nil {
		t.Fatal(err)
	}
	for g, s := range refTr.Partition().StageOf {
		if s != prof.Partition().StageOf[g] {
			t.Fatalf("pinned costs gave different partition: %v vs %v",
				refTr.Partition().StageOf, prof.Partition().StageOf)
		}
	}
	ref := runCurve(t, build, 2, 1, append(append([]pipemare.Option{}, pinned...),
		pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	conc := runCurve(t, build, 2, 1, append(append([]pipemare.Option{}, pinned...),
		pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(3))))...)
	requireIdentical(t, "profile-pinned/W=3", ref, conc)
}

// --- replicated data-parallel engine ---

// replicaGrid returns the (replicas, inner-engine) combinations the
// grid-shaped replicated equivalence tests (MatchesReference,
// DivergenceAcrossReplicas) cover. CI narrows the
// grid per matrix job via PIPEMARE_REPLICAS / PIPEMARE_REPLICA_INNER;
// locally the full grid runs.
func replicaGrid() (rs []int, inners []string) {
	rs = []int{2, 4}
	inners = []string{"reference", "concurrent"}
	if v := os.Getenv("PIPEMARE_REPLICAS"); v != "" {
		r, err := strconv.Atoi(v)
		if err != nil {
			panic("bad PIPEMARE_REPLICAS: " + v)
		}
		rs = []int{r}
	}
	if v := os.Getenv("PIPEMARE_REPLICA_INNER"); v != "" {
		if v != "reference" && v != "concurrent" {
			// A typo'd value must not silently fall back to the reference
			// inner and void the coverage the CI cell claims to run.
			panic("bad PIPEMARE_REPLICA_INNER: " + v)
		}
		inners = []string{v}
	}
	return rs, inners
}

// replicatedEngine builds the replicated engine over the named inner.
func replicatedEngine(inner string) pipemare.Engine {
	if inner == "concurrent" {
		return pipemare.NewReplicatedEngine(func() pipemare.Engine { return concurrent.New() })
	}
	return pipemare.NewReplicatedEngine(nil)
}

// runCurve trains a fresh task under the given options and returns the
// curve, asserting the trainer really owns wantReplicas replicas (so a
// silently single-replica run cannot fake an equivalence pass).
func runCurve(t *testing.T, build func() pipemare.Task, epochs, wantReplicas int, opts ...pipemare.Option) *pipemare.Run {
	t.Helper()
	tr, err := pipemare.New(build(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != wantReplicas {
		t.Fatalf("trainer owns %d replicas, want %d", tr.Replicas(), wantReplicas)
	}
	r, err := tr.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplicatedEngineMatchesReference pins the data-parallel determinism
// claim: R replicas splitting every minibatch's microbatches — with every
// PipeMare technique on (T1, T2, T3 warmup, clipping, recompute) and
// either inner engine — must produce bit-identical curves to a
// single-replica Reference run of the same global microbatch set.
func TestReplicatedEngineMatchesReference(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 6})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 4, 8) }
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
	ref := runCurve(t, build, 3, 1, base...)
	rs, inners := replicaGrid()
	for _, r := range rs {
		for _, inner := range inners {
			opts := append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(r), pipemare.WithEngine(replicatedEngine(inner)))
			got := runCurve(t, build, 3, r, opts...)
			requireIdentical(t, fmt.Sprintf("replicated/R=%d/%s", r, inner), ref, got)
		}
	}
}

// TestReplicatedEngineMatchesReferenceOnTransformer repeats the pin on the
// stage-split transformer (boundary activations in registers, AdamW,
// warmup-invsqrt schedule) with the pipelined inner engine, so replication
// composes with true microbatch overlap.
func TestReplicatedEngineMatchesReferenceOnTransformer(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}))
	ref := runCurve(t, build, 2, 1, base...)
	// The inner engines run the new work-stealing scheduler with fewer
	// workers than stages, so replication composes with stealing.
	inner := pipemare.NewReplicatedEngine(func() pipemare.Engine {
		return concurrent.New(concurrent.WithWorkers(2))
	})
	opts := append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithEngine(inner))
	got := runCurve(t, build, 2, 2, opts...)
	requireIdentical(t, "replicated-transformer/R=2/concurrent-W=2", ref, got)
}

// TestReplicatedEngineDivergenceAcrossReplicas pins the abort path under
// replication: when a microbatch in some replica's chunk blows past the
// loss cap, every replica must drain and restore, no commit or broadcast
// may run, and the recorded curve must equal the Reference divergence
// curve exactly.
func TestReplicatedEngineDivergenceAcrossReplicas(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 8})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 3, 9) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(8),
		pipemare.WithSeed(4), pipemare.WithLossCap(15),
		pipemare.WithRecompute(2),
		pipemare.WithSchedule(optim.Constant(8)), // absurd rate: diverges
	}
	ref := runCurve(t, build, 4, 1, base...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	rs, inners := replicaGrid()
	for _, r := range rs {
		for _, inner := range inners {
			opts := append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(r), pipemare.WithEngine(replicatedEngine(inner)))
			got := runCurve(t, build, 4, r, opts...)
			requireIdentical(t, fmt.Sprintf("replicated-divergence/R=%d/%s", r, inner), ref, got)
		}
	}
}

// TestReplicatedShardedCommitMatchesReference pins the replica-sharded
// (ZeRO-style) optimizer commit: with the sharded step explicitly
// required, R ∈ {2, 4} replicas × both inner engines × scheduler workers
// W ∈ {1, 2} must train the all-techniques DNN bit-identically to a
// single-replica Reference run — every replica stepping only its stage
// shard against its local optimizer state, with the all-gather replacing
// the full broadcast. The leader-serial path (WithShardedStep(false))
// stays pinned alongside so both commit modes remain ground-truth equal.
func TestReplicatedShardedCommitMatchesReference(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 6})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 4, 8) }
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
	ref := runCurve(t, build, 3, 1, base...)
	rs, inners := replicaGrid()
	for _, r := range rs {
		for _, inner := range inners {
			ws := []int{0} // reference inner: worker count is moot
			if inner == "concurrent" {
				ws = []int{1, 2}
			}
			for _, w := range ws {
				eng := pipemare.NewReplicatedEngine(nil)
				if inner == "concurrent" {
					w := w
					eng = pipemare.NewReplicatedEngine(func() pipemare.Engine {
						return concurrent.New(concurrent.WithWorkers(w))
					})
				}
				opts := append(append([]pipemare.Option{}, base...),
					pipemare.WithReplicas(r), pipemare.WithShardedStep(true),
					pipemare.WithEngine(eng))
				got := runCurve(t, build, 3, r, opts...)
				requireIdentical(t, fmt.Sprintf("sharded/R=%d/%s/W=%d", r, inner, w), ref, got)
			}
		}
		// The leader-serial commit must stay bit-identical too.
		serial := append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(r), pipemare.WithShardedStep(false),
			pipemare.WithEngine(pipemare.NewReplicatedEngine(nil)))
		got := runCurve(t, build, 3, r, serial...)
		requireIdentical(t, fmt.Sprintf("leader-serial/R=%d", r), ref, got)
	}
}

// TestReplicatedShardedCommitDivergenceAbort pins the abort path of the
// sharded commit: a capped loss in any replica's chunk must cancel the
// whole commit — no scatter, no shard steps, no gather — leaving every
// replica's state restored and the recorded curve equal to Reference's
// divergence curve.
func TestReplicatedShardedCommitDivergenceAbort(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 8})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 3, 9) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(8),
		pipemare.WithSeed(4), pipemare.WithLossCap(15),
		pipemare.WithRecompute(2),
		pipemare.WithSchedule(optim.Constant(8)), // absurd rate: diverges
	}
	ref := runCurve(t, build, 4, 1, base...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	rs, _ := replicaGrid()
	for _, r := range rs {
		opts := append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(r), pipemare.WithShardedStep(true),
			pipemare.WithEngine(pipemare.NewReplicatedEngine(nil)))
		got := runCurve(t, build, 4, r, opts...)
		requireIdentical(t, fmt.Sprintf("sharded-divergence/R=%d", r), ref, got)
	}
}

// TestReplicatedEngineSurvivesRepeatedRuns pins the Lifecycle contract for
// the replicated engine: chunked RunInto calls and a second trainer must
// restart the replica group cleanly.
func TestReplicatedEngineSurvivesRepeatedRuns(t *testing.T) {
	eng := replicatedEngine("concurrent")
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	tr, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithReplicas(2),
		pipemare.WithSeed(3), pipemare.WithEngine(eng),
		pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	run := &pipemare.Run{}
	for i := 0; i < 3; i++ {
		if _, err := tr.RunInto(context.Background(), 2, run); err != nil {
			t.Fatal(err)
		}
	}
	if run.Epochs() != 6 {
		t.Fatalf("chunked runs recorded %d epochs, want 6", run.Epochs())
	}
	// The same engine instance must also serve a second trainer.
	tr2, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.GPipe),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithReplicas(2),
		pipemare.WithEngine(eng), pipemare.WithSchedule(optim.Constant(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}
