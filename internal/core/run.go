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
// per epoch. Epochs accumulate across calls, and a Run after a cancel, a
// divergence or a restore resumes at the first uncommitted minibatch (the
// epoch's loss entry then averages only the minibatches it trained).
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
// An epoch's minibatches run as streams through the pipeline, each up to
// the next point where the run needs it drained: the epoch's end (its
// evaluation, and T3's switch), a due checkpoint, and — for a replicated
// trainer, whose boundary may admit a member — every minibatch.
func (t *Trainer) RunInto(ctx context.Context, epochs int, run *metrics.Run) (*metrics.Run, error) {
	if run == nil {
		run = &metrics.Run{}
	}
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return run, err
		}
		epochLoss, batches := 0.0, 0
		for mbs := t.epochLeft(); len(mbs) > 0; {
			losses, err := t.stream(ctx, mbs[:t.streamLen(len(mbs))])
			for _, l := range losses {
				epochLoss += l
			}
			batches += len(losses)
			mbs = mbs[len(losses):]
			if err != nil {
				// Diverged or cancelled mid-stream: drop the partial
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
			if err := t.maybeCheckpoint(); err != nil {
				return run, err
			}
			// Stream-boundary admission: rejoin drained standbys and
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
		ctl.Instant(trace.NameEpoch, -1, -1, 0)
		if t.observer != nil {
			t.observer(run.Epochs(), run)
		}
	}
	return run, nil
}

// epochLeft returns the microbatches of the current epoch's minibatches
// not yet committed. The batch order is a pure function of (seed, epoch)
// — no RNG state survives between epochs — so a resumed run replays the
// epoch's order, skipping the minibatches already committed.
func (t *Trainer) epochLeft() [][][]int {
	epoch, skip := t.steps()/t.perEpoch(), t.steps()%t.perEpoch()
	epochRng := rand.New(rand.NewSource(epochSeed(t.cfg.Seed, epoch)))
	var mbs [][][]int
	for _, batch := range data.Batches(t.task.NumTrain(), t.cfg.BatchSize, epochRng) {
		if len(batch) < t.cfg.BatchSize {
			continue // keep N constant; drop the final short batch
		}
		if skip > 0 {
			skip--
			continue
		}
		mbs = append(mbs, data.Microbatches(batch, t.cfg.MicrobatchSize))
	}
	return mbs
}

// streamLen returns how many of the epoch's next left minibatches the
// next stream runs: up to the next due checkpoint, and one at a time for
// a replicated trainer.
func (t *Trainer) streamLen(left int) int {
	if t.cfg.Replicas > 1 {
		return 1
	}
	if every := t.cfg.CheckpointEvery; t.cfg.CheckpointDir != "" && every > 0 {
		left = min(left, every-t.steps()%every)
	}
	return left
}
