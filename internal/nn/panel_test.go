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
// panels the stream packed: per Linear weight, as many as the distinct
// forward versions its stage's forward slots read in an asynchronous
// stream — a commit inside the stream leaves the panel of a version the
// next minibatch still reads — none in a synchronous one, and none still
// held.
type panelProbe struct {
	engine.Engine
	t         *testing.T
	part      func() *pipeline.Partition
	asyncFrom int // the first asynchronous microbatch; −1: none is
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
	clock := pipeline.Clock{P: h.Stages(), N: n}
	now := e.counts()
	for st, params := range e.part().Stages {
		versions := map[int]bool{}
		for s := base; s < base+len(mbs)*n; s++ {
			versions[clock.FwdVersion(s, st+1)] = true
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
// run at P = 4, N = 8 (a T3 warm-up epoch, then asynchronous epochs with
// T1 and T2), on the Reference and the concurrent engine: each stage packs
// each Linear weight once per distinct forward version its stream reads
// (not once per slot, nor once per minibatch), no panel outlives the
// stream, and the synchronous epochs, the evaluations between epochs
// (the count spans them) and a GPipe run pack none.
func TestForwardPacksOncePerVersion(t *testing.T) {
	for _, c := range []struct {
		method core.Method
		eng    engine.Engine
	}{
		{core.PipeMare, engine.NewReference()},
		{core.PipeMare, concurrent.New(concurrent.WithWorkers(2))},
		{core.GPipe, engine.NewReference()},
	} {
		t.Run(fmt.Sprintf("%v/%s", c.method, c.eng.Name()), func(t *testing.T) {
			d := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4, Train: 128, Test: 32, Noise: 0.4, Seed: 1})
			task := model.NewResNetMLP(d, 16, 4, 2)
			var ps []*nn.Param
			for _, g := range task.Groups() {
				ps = append(ps, g.Params...)
			}
			counts, stop := nn.CountPanels()
			defer stop()
			var tr *core.Trainer
			probe := &panelProbe{Engine: c.eng, t: t, part: func() *pipeline.Partition { return tr.Partition() },
				asyncFrom: -1, counts: counts}
			cfg := core.Config{Method: c.method, Stages: 4, BatchSize: 32, MicrobatchSize: 4, Seed: 5, Engine: probe}
			if c.method == core.PipeMare {
				// One warm-up epoch: 128/32 minibatches of N = 8.
				cfg.WarmupEpochs, cfg.T1K, cfg.T2D = 1, 8, 0.5
				probe.asyncFrom = 4 * 8
			}
			tr, err := core.New(task, optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 0.01), optim.Constant(1e-3), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
			if c.method == core.PipeMare && probe.async != 8 {
				t.Fatalf("%d asynchronous minibatches checked, want 8", probe.async)
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
