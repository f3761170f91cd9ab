package nn_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
)

// An external test package: it drives a real trainer (package core
// imports nn).

// panelProbe wraps an engine and, after each Stream, checks the Wᵀ
// panels the stream packed: per Linear weight, one per run of consecutive
// forward slots of its stage that read one version in an asynchronous
// stream — a commit inside the stream leaves the panel of a version the
// next minibatch still reads — none in a synchronous one, and none still
// held. Table 1's versions only advance, so a run is a distinct version;
// Hogwild's may step back to one read before.
type panelProbe struct {
	engine.Engine
	t         *testing.T
	part      func() *pipeline.Partition
	asyncFrom int // the first asynchronous microbatch; −1: none is
	hogwild   *pipeline.Hogwild
	seed      int64
	counts    func() map[*nn.Param]int
	seen      map[*nn.Param]int
	async     int // asynchronous minibatches checked
}

func (e *panelProbe) Stream(ctx context.Context, h engine.Host, mbs [][][]int, c engine.Commit) ([]float64, error) {
	t := e.t
	base := h.MicroBase()
	async := e.asyncFrom >= 0 && base >= e.asyncFrom
	losses, err := e.Engine.Stream(ctx, h, mbs, c)
	n := len(mbs[0])
	clock := pipeline.Clock{P: h.Stages(), N: n, Hogwild: e.hogwild, Seed: e.seed}
	now := e.counts()
	for st, params := range e.part().Stages {
		var versions []int
		for s := base; s < base+len(mbs)*n; s++ {
			if v := clock.FwdVersion(s, st+1); len(versions) == 0 || v != versions[len(versions)-1] {
				versions = append(versions, v)
			}
		}
		want := 0
		if async {
			want = len(versions)
		}
		for _, p := range params {
			if nn.HoldsPanel(p) {
				t.Errorf("stream at microbatch %d: %v still holds a panel after Stream", base, p)
			}
			if !strings.HasSuffix(p.Name, ".W") {
				want := 0
				if got := now[p] - e.seen[p]; got != want {
					t.Errorf("stream at microbatch %d: %v packed %d panels, want none", base, p, got)
				}
				continue
			}
			if got := now[p] - e.seen[p]; got != want {
				t.Errorf("stream at microbatch %d (async %v): stage %d's %v packed %d panels, want %d (versions %v)",
					base, async, st, p, got, want, versions)
			}
		}
	}
	e.seen = now
	if async {
		e.async += len(mbs)
	}
	return losses, err
}

// TestForwardPacksOncePerVersion pins the panel's lifetime on a PipeMare
// run at P = 4 (a T3 warm-up epoch, then asynchronous epochs with T1 and
// T2), on the Reference and the concurrent engine: each stage packs each
// Linear weight once per forward version its stream reads, per run of
// slots reading it (not once per slot, nor once per minibatch), no panel
// outlives the stream,
// and the synchronous epochs, the evaluations between epochs (the count
// spans them) and a GPipe run pack none. At N = 8 the first three
// stages' rings keep 2 versions; at N = 2 the first stage's keeps 4 and a
// 16-minibatch stream wraps it four times over. The last stage's keeps 1
// (Clock.Keep), so each of its versions is the buffer the push just
// recycled. Under Hogwild delays (TauMax 2: a ring of 3) a stage that
// read version k − 2 at minibatch k reads k + 1 at minibatch k + 1 — the
// buffer the push of k + 1 just recycled — so a panel the push failed to
// release would be reused for the wrong version: fewer packs than
// versions, and under the race detector checkPanel's panic.
func TestForwardPacksOncePerVersion(t *testing.T) {
	const train = 128
	for _, c := range []struct {
		method  core.Method
		eng     engine.Engine
		batch   int // N = batch / 4
		hogwild *pipeline.Hogwild
	}{
		{core.PipeMare, engine.NewReference(), 32, nil},
		{core.PipeMare, concurrent.New(2), 32, nil},
		{core.PipeMare, engine.NewReference(), 8, nil},
		{core.PipeMare, concurrent.New(2), 8, nil},
		{core.PipeMare, engine.NewReference(), 8, &pipeline.Hogwild{TauMax: 2, MeanScale: 0.5}},
		{core.PipeMare, concurrent.New(2), 8, &pipeline.Hogwild{TauMax: 2, MeanScale: 0.5}},
		{core.GPipe, engine.NewReference(), 32, nil},
	} {
		name := fmt.Sprintf("%v/%s", c.method, c.eng.Name())
		if c.batch != 32 {
			name += fmt.Sprintf("/N=%d", c.batch/4)
		}
		if c.hogwild != nil {
			name += "/hogwild"
		}
		t.Run(name, func(t *testing.T) {
			d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: train, Test: 32, Noise: 0.4, Seed: 1})
			task := model.NewResNetMLP(d, 16, 4, 2)
			var ps []*nn.Param
			for _, g := range task.Groups() {
				ps = append(ps, g.Params...)
			}
			counts, stop := nn.CountPanels()
			defer stop()
			var tr *core.Trainer
			probe := &panelProbe{Engine: c.eng, t: t, part: func() *pipeline.Partition { return tr.Partition() },
				asyncFrom: -1, hogwild: c.hogwild, seed: 5, counts: counts}
			cfg := core.Config{Method: c.method, Stages: 4, BatchSize: c.batch, MicrobatchSize: 4, Seed: 5, Engine: probe, Hogwild: c.hogwild}
			if c.method == core.PipeMare {
				// One warm-up epoch: its train/4 microbatches.
				cfg.WarmupEpochs, cfg.T1K, cfg.T2D = 1, 8, 0.5
				probe.asyncFrom = train / 4
			}
			tr, err := core.New(task, optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 0.01), optim.Constant(1e-3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
			if want := 2 * train / c.batch; c.method == core.PipeMare && probe.async != want {
				t.Fatalf("%d asynchronous minibatches checked, want %d", probe.async, want)
			}
			total := 0
			for _, n := range counts() {
				total += n
			}
			if (total == 0) != (c.method == core.GPipe) {
				t.Fatalf("%d panels packed in all", total)
			}
		})
	}
}
