package pipemare_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
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

// badMicroTask is a quadTask whose at-th bound microbatch diverges: its
// machine's loss starts at NaN, and every op adds to it. Stage 0 binds
// microbatches in order on every engine, once each without recompute.
type badMicroTask struct {
	*quadTask
	binds, at int
}

func (b *badMicroTask) BindMicro(m *nn.Machine, idx []int) {
	b.quadTask.BindMicro(m, idx)
	if b.binds++; b.binds == b.at {
		m.Loss = math.NaN()
	}
}

// TestEnginesEquivalentOnSplitDivergence pins the abort path under
// overlap: when a microbatch's loss blows past the cap mid-epoch with
// several stage-split chains in flight, the concurrent engine must drain,
// restore and record exactly the Reference curve. Its second case goes bad
// inside a stream — at the first microbatch of the third minibatch of the
// second epoch, with the clip fold on — where chains of the next
// minibatch may already be in flight: the curve is Reference's at every
// worker count, and the stream's workers exit (the package's TestMain).
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

	// Four minibatches of N = 4 per epoch: the 25th microbatch opens
	// epoch 2's third minibatch.
	badBuild := func() pipemare.Task { return &badMicroTask{quadTask: newQuadTask(4, 32, 8, 5), at: 25} }
	mid := []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithSeed(11),
		pipemare.WithT1(12), pipemare.WithT2(0.3), pipemare.WithT3(1), pipemare.WithClipNorm(2),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSchedule(optim.Constant(0.05))}
	ref = runCurve(t, badBuild, 3, 1, append(append([]pipemare.Option{}, mid...), pipemare.WithEngine(pipemare.NewReferenceEngine()))...)
	if !ref.Diverged || ref.Epochs() != 2 {
		t.Fatalf("reference run recorded %d epochs (diverged %v), want epoch 1 and the divergence", ref.Epochs(), ref.Diverged)
	}
	for _, w := range workersGrid(4) {
		conc := runCurve(t, badBuild, 3, 1, append(append([]pipemare.Option{}, mid...), pipemare.WithEngine(pipemare.NewConcurrentEngine(w)))...)
		requireIdentical(t, fmt.Sprintf("mid-stream-divergence/W=%d", w), ref, conc)
	}
}

// TestStreamsMatchReferenceAcrossCuts pins the stream's seams against
// Reference at every worker count: streams cut short by a checkpoint
// cadence (3) that does not divide the epoch (4 minibatches), so they
// start mid-epoch and end mid-epoch; a T3 warm-up epoch, whose
// synchronous forward slots wait for every earlier commit; the clip fold;
// the recompute climb; GPipe; and both sides of the in-flight cap
// min(P, N), at N = 2 and N = 8 over P = 4.
func TestStreamsMatchReferenceAcrossCuts(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 5) }
	for _, tc := range []struct {
		name string
		opts []pipemare.Option
	}{
		{"pipemare/N=4", []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(12),
			pipemare.WithT2(0.3), pipemare.WithT3(1), pipemare.WithClipNorm(2), pipemare.WithRecompute(2),
			pipemare.WithMicrobatches(4)}},
		{"pipemare/N=8", []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT2(0.3),
			pipemare.WithMicrobatches(8)}},
		{"pipedream/N=2", []pipemare.Option{pipemare.WithMethod(pipemare.PipeDream), pipemare.WithClipNorm(2),
			pipemare.WithMicrobatches(2)}},
		{"gpipe/N=4", []pipemare.Option{pipemare.WithMethod(pipemare.GPipe), pipemare.WithClipNorm(2),
			pipemare.WithMicrobatches(4)}},
	} {
		opts := append([]pipemare.Option{pipemare.WithSeed(11), pipemare.WithBatchSize(8),
			pipemare.WithSchedule(optim.Constant(0.05))}, tc.opts...)
		curve := func(eng pipemare.Engine) *pipemare.Run {
			o := append(append([]pipemare.Option{}, opts...), pipemare.WithEngine(eng),
				pipemare.WithCheckpoint(t.TempDir(), 3))
			return runCurve(t, build, 4, 1, o...)
		}
		ref := curve(pipemare.NewReferenceEngine())
		for _, w := range workersGrid(4) {
			requireIdentical(t, fmt.Sprintf("%s/W=%d", tc.name, w), ref, curve(pipemare.NewConcurrentEngine(w)))
		}
	}
}

// TestConcurrentEngineSurvivesRepeatedRuns pins that an engine is a value:
// the same engine instance serves chunked Run calls and then a second
// trainer.
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

// TestConcurrentEngineServesManyTrainers pins that an engine is a value:
// one concurrent engine serves chunked RunInto calls at R ∈ {1, 2}, and then
// an R = 1 and an R = 2 trainer training on it at the same time, each
// retracing its solo curve bit for bit.
func TestConcurrentEngineServesManyTrainers(t *testing.T) {
	eng := concurrent.New(concurrent.WithWorkers(2))
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	opts := func(r int) []pipemare.Option {
		return []pipemare.Option{
			pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT1(8),
			pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
			pipemare.WithReplicas(r),
			pipemare.WithSeed(3), pipemare.WithEngine(eng),
			pipemare.WithSchedule(optim.Constant(0.05))}
	}
	rs := []int{1, 2}
	solo := make([]*pipemare.Run, len(rs))
	for i, r := range rs {
		tr, err := pipemare.New(build(), opts(r)...)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = &pipemare.Run{}
		for k := 0; k < 3; k++ {
			if _, err := tr.RunInto(context.Background(), 2, solo[i]); err != nil {
				t.Fatal(err)
			}
		}
		if solo[i].Epochs() != 6 {
			t.Fatalf("R=%d: chunked runs recorded %d epochs, want 6", r, solo[i].Epochs())
		}
	}
	shared := make([]*pipemare.Run, len(rs))
	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := pipemare.New(build(), opts(r)...)
			if err == nil {
				shared[i], err = tr.Run(context.Background(), 6)
			}
			if err != nil {
				t.Errorf("R=%d beside another trainer: %v", r, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, r := range rs {
		requireIdentical(t, fmt.Sprintf("shared/R=%d", r), solo[i], shared[i])
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

// TestEnginesEquivalentFineGrained pins the paper's fine-grained regime,
// one stage per weight group (P = 27 here), where the concurrent engine cuts
// the stages into S = min(P, 2W) multi-stage segments: W ∈ {1, 2, 3, 27}
// gives S = 2, 4, 6 and 27, with uneven segment sizes. Every PipeMare
// technique that acts per stage is on, and the recompute climb re-enters
// segment 0. A diverging run at W = 2 pins the abort path across segment
// edges.
func TestEnginesEquivalentFineGrained(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 32, Noise: 0.4, Seed: 3})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 8, 12, 5) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare), pipemare.WithStages(0),
		pipemare.WithT1(12), pipemare.WithT2(0.3), pipemare.WithRecompute(2),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(13),
	}
	run := func(eng pipemare.Engine, extra ...pipemare.Option) *pipemare.Run {
		opts := append(append(append([]pipemare.Option{}, base...), extra...), pipemare.WithEngine(eng))
		return runCurve(t, build, 3, 1, opts...)
	}
	steady := pipemare.WithSchedule(optim.Constant(0.05))
	ref := run(pipemare.NewReferenceEngine(), steady)
	if ref.Diverged {
		t.Fatal("the steady reference run diverged")
	}
	if tr, err := pipemare.New(build(), base...); err != nil || tr.Partition().P != 27 {
		t.Fatalf("want one stage per group, P = 27 (err %v)", err)
	}
	for _, w := range append(workersGrid(27), 3) {
		conc := run(pipemare.NewConcurrentEngine(w), steady)
		requireIdentical(t, fmt.Sprintf("fine-grained/W=%d", w), ref, conc)
	}

	diverge := []pipemare.Option{pipemare.WithLossCap(15), pipemare.WithSchedule(optim.Constant(8))}
	ref = run(pipemare.NewReferenceEngine(), diverge...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	conc := run(pipemare.NewConcurrentEngine(2), diverge...)
	requireIdentical(t, "fine-grained-divergence/W=2", ref, conc)
}

// TestProfilePartitionMode pins the measured-cost path: a profile-mode
// trainer builds, measures a positive cost for every stage, and trains.
// That its split is the DP optimum under its measured costs, and that its
// followers take that split from the hello rather than profiling their
// own, is pinned in internal/core (TestFollowerTakesTheLeadersStageMap).
func TestProfilePartitionMode(t *testing.T) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	prof, err := pipemare.New(build(),
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(11),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}),
		pipemare.WithPartition(pipemare.PartitionProfile))
	if err != nil {
		t.Fatal(err)
	}
	if prof.PartitionMode() != pipemare.PartitionProfile {
		t.Fatalf("mode = %v", prof.PartitionMode())
	}
	for s, c := range prof.StageCosts() {
		if c <= 0 {
			t.Fatalf("measured cost of stage %d is %g, want > 0", s, c)
		}
	}
	if _, err := prof.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

// --- data-parallel replication ---

// replicaGrid returns the (replicas, engine) combinations the
// grid-shaped replicated equivalence tests (MatchesReference,
// DivergenceAcrossReplicas) cover: every replica runs the named engine.
// CI narrows the grid per matrix job via PIPEMARE_REPLICAS /
// PIPEMARE_REPLICA_INNER; locally the full grid runs.
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

// replicatedEngine returns the named engine, the one every replica of a
// replicated run then runs.
func replicatedEngine(inner string) pipemare.Engine {
	if inner == "concurrent" {
		return concurrent.New()
	}
	return pipemare.NewReferenceEngine()
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
	// The replicas run the work-stealing scheduler with fewer workers than
	// stages, so replication composes with stealing.
	opts := append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(2))))
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
// (ZeRO-style) optimizer commit: R ∈ {2, 4} replicas × both inner engines
// × scheduler workers W ∈ {1, 2} must train the all-techniques DNN
// bit-identically to a single-replica Reference run — every replica
// stepping only its stage shard against its local optimizer state, the
// stepped state all-gathered back.
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
				eng := pipemare.NewReferenceEngine()
				if inner == "concurrent" {
					eng = concurrent.New(concurrent.WithWorkers(w))
				}
				opts := append(append([]pipemare.Option{}, base...),
					pipemare.WithReplicas(r), pipemare.WithEngine(eng))
				got := runCurve(t, build, 3, r, opts...)
				requireIdentical(t, fmt.Sprintf("sharded/R=%d/%s/W=%d", r, inner, w), ref, got)
			}
		}
	}
}

// TestReplicatedEngineSurvivesRepeatedRuns pins the same under
// replication: chunked RunInto calls and a second trainer run on the one
// engine value every replica of the group shares.
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

// TestWithEngineMeansTheSameAtEveryReplicaCount pins that WithEngine names
// the pipeline engine each replica runs, with no wrapper: two replicas
// under plain Reference, and under the concurrent engine, train the
// single-replica Reference curve bit for bit.
func TestWithEngineMeansTheSameAtEveryReplicaCount(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 31) }
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSchedule(optim.Constant(0.05)))
	ref := runCurve(t, build, 3, 1, base...)
	for name, eng := range map[string]pipemare.Engine{
		"reference":    pipemare.NewReferenceEngine(),
		"concurrent-2": pipemare.NewConcurrentEngine(2),
	} {
		got := runCurve(t, build, 3, 2, append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(2), pipemare.WithEngine(eng))...)
		requireIdentical(t, "R=2/"+name, ref, got)
	}
}
