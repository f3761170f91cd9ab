package main

import (
	"context"
	"fmt"
	"io"

	"pipemare/internal/core"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
)

// fig19 regenerates the Appendix E experiment: Hogwild!-style stochastic
// per-stage delays on the classification workload, comparing synchronous
// training (GPipe), raw Hogwild!, and Hogwild! with T1 learning-rate
// rescheduling. The Hogwild! rows are PipeDream at N = 1 under the
// trainer's Hogwild version rule (core.Config.Hogwild): minibatch k's
// forward and backward at a stage both read the version k − d drawn for
// it. The runs train in the command line's dtype and partition mode; a
// replica count above one is refused (parseFlags), since a minibatch of
// one microbatch has nothing to split.
func fig19(w io.Writer, c *config) {
	fmt.Fprintln(w, "Figure 19: Hogwild!-style asynchronous training")
	epochs := c.scaleEpochs(45)
	hogwild := &pipeline.Hogwild{TauMax: 24, MeanScale: 0.8}
	specs := []struct {
		name    string
		method  core.Method
		hogwild *pipeline.Hogwild
		t1k     int
	}{
		{"Sync (tau=0)", core.GPipe, nil, 0},
		{"Hogwild!", core.PipeDream, hogwild, 0},
		{"Hogwild! + T1", core.PipeDream, hogwild, 480},
	}
	tb := newTable("Run", "Best", "Final", "Diverged/blown")
	var best []float64
	for _, sp := range specs {
		task := classifierWithBlocks(52, 11)
		task.(core.DTypeSettable).SetDType(c.dtype)
		cfg := core.Config{
			Method: sp.method, BatchSize: 64, MicrobatchSize: 64, Partition: c.partition,
			T1K: sp.t1k, Seed: 11, Hogwild: sp.hogwild, Engine: c.engine,
		}
		sched := optim.StepDecay{Base: 0.05, DropEvery: 30 * 16, Factor: 0.1}
		tr, err := core.New(task, optim.NewSGD(params(task), 0.9, 5e-4), sched, cfg)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		r, err := tr.Run(context.Background(), epochs)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		n := r.ParamNorm
		last := "-"
		if !r.Diverged {
			last = fmt.Sprintf("%.1f", r.Metric[r.Epochs()-1])
		}
		tb.add(sp.name, fmt.Sprintf("%.1f", r.Best()), last, r.Diverged || n[len(n)-1] > 1e6)
		best = append(best, r.Best())
	}
	tb.write(w)
	verdict := "does not beat"
	if best[2] > best[1] {
		verdict = "beats"
	}
	fmt.Fprintf(w, "Hogwild! + T1 (best %.1f) %s raw Hogwild! (best %.1f) under stochastic per-stage delays.\n", best[2], verdict, best[1])
}
