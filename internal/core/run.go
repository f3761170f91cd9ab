package core

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/metrics"
	"pipemare/internal/nn"
	"pipemare/internal/trace"
)

// Run trains for the given number of epochs under ctx, recording one entry
// per epoch. Epochs accumulate across calls: warmup (T3) and divergence
// state persist, so Run can be called repeatedly to continue training.
// Training stops early (without error) when a loss diverges — check
// Run.Diverged — and stops with ctx.Err() when the context is cancelled;
// the recorded curve up to that point is always returned.
func (t *Trainer) Run(ctx context.Context, epochs int) (*metrics.Run, error) {
	return t.RunInto(ctx, epochs, nil)
}

// ctlTrack returns this trainer's control track (epoch marks, eval,
// checkpoint and fault events) — nil, hence inert, when tracing is off.
// Its single writer is the goroutine driving run(): the step loop and its
// fault instants, the checkpoint hook and the boundary admission all run
// on it.
func (t *Trainer) ctlTrack() *trace.Track {
	return t.cfg.Trace.Track(t.cfg.TraceReplica, trace.TidControl, "control")
}

// RunInto is Run appending into an existing curve (nil allocates one).
func (t *Trainer) RunInto(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	if run == nil {
		run = &metrics.Run{}
	}
	if lc, ok := t.eng.(engine.Lifecycle); ok {
		lc.Start(host{t})
		defer lc.Stop()
	}
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		epochLoss, batches := 0.0, 0
		// The batch order is a pure function of (seed, epoch) — no RNG
		// state survives between epochs — so a restored run replays the
		// interrupted epoch's order exactly.
		epochRng := rand.New(rand.NewSource(epochSeed(t.cfg.Seed, t.epoch)))
		skip := t.resumeSkip
		t.resumeSkip = 0
		for _, batch := range data.Batches(t.task.NumTrain(), t.cfg.BatchSize, epochRng) {
			if len(batch) < t.cfg.BatchSize {
				continue // keep N constant; drop the final short batch
			}
			if skip > 0 {
				// Minibatches already committed before the checkpoint this
				// run restored from; their state is baked in.
				skip--
				continue
			}
			micros := data.Microbatches(batch, t.cfg.MicrobatchSize)
			loss, err := t.minibatch(ctx, micros)
			if err != nil {
				// Diverged or cancelled mid-minibatch: drop the partial
				// gradient accumulation so a later Run does not fold it into
				// its first step.
				nn.ZeroGrads(t.params)
				if !errors.Is(err, engine.ErrDiverged) {
					return run, err
				}
				t.diverged = true
				run.Record(math.Inf(1), 0, nn.ParamNorm(t.params))
				run.Diverged = true
				return run, nil
			}
			t.micro += len(micros)
			epochLoss += loss
			batches++
			if err := t.maybeCheckpoint(); err != nil {
				return run, err
			}
			// Minibatch-boundary admission: rejoin drained standbys and
			// admit parked joiners here, on the run goroutine, after the
			// checkpoint hook — so membership changes never race a
			// collective or a checkpoint write, and a post-join curve is a
			// pure function of the handed-off state.
			t.admitBoundary()
		}
		ctl := t.ctlTrack()
		t0 := t.cfg.Trace.Now()
		metric := t.task.EvalTest()
		ctl.Span(trace.NameEval, t0, -1, -1, 0)
		run.Record(epochLoss/float64(batches), metric, nn.ParamNorm(t.params))
		t.epoch++
		ctl.Instant(trace.NameEpoch, -1, -1, 0)
		if t.observer != nil {
			t.observer(run.Epochs(), run)
		}
	}
	return run, nil
}
