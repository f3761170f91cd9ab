// Package engine defines the pluggable execution-engine abstraction of the
// PipeMare reproduction. A trainer (internal/core.Trainer) owns the weight
// partition, version stores and technique state, and exposes the slot
// schedule to an Engine through the Host interface: one call per
// microbatch slot — forward, recompute-forward, backward — each of which
// installs the weight versions it reads before it computes. An Engine
// decides *how* those slots are scheduled onto goroutines, and nothing
// else: which version a slot reads is the trainer's business.
//
// An engine runs a stream: a run of minibatches on workers started once
// for the stream, which ends where the trainer needs a drained pipeline
// (the end of an epoch, a due checkpoint, a replica group's reduce). When
// the trainer commits alone it hands the stream its Commit, and each
// stage's update runs as a job in the stage's own serialization domain
// right after the stage's last backward slot of the minibatch, so the
// slots of minibatch k+1 enter while k drains, under the one wait rule
// Commit states. A replica group of more than one member commits after
// its reduce, through the same commit jobs (Commits) over each member's
// shard (replica.Group), so each member streams one minibatch without a
// Commit.
//
// An engine is a scheduling policy and holds no run resources: whatever
// goroutines a Stream starts, it joins before it returns, so one engine
// value serves any number of hosts, one after another or at once.
//
// Two engines exist: Reference (this package) executes every slot and
// commit job on the calling goroutine in program order — it is the
// original single-goroutine simulator and the semantic ground truth — and
// internal/engine/concurrent runs a work-stealing pool of W workers over
// the run queues of segments of consecutive stages with up to min(P, N)
// microbatches in flight, overlapping the per-stage compute slots like a
// real pipeline that does not drain between minibatches. Both produce
// bit-identical training curves for every worker count; the equivalence is
// pinned by tests at the repository root.
package engine

import (
	"context"
	"errors"
	"strconv"

	"pipemare/internal/trace"
)

// ErrDiverged is returned by Engine.Stream when a microbatch loss is
// non-finite or exceeds the trainer's loss cap. The trainer's master
// weights have been restored when it is returned.
var ErrDiverged = errors.New("engine: training diverged")

// Host is the slot schedule an Engine drives, implemented by
// internal/core.Trainer. Stage indices are 0-based; s is the global
// microbatch counter of the timing model (package pipeline).
//
// A microbatch's slots form a chain: BeginMicro, the forward slots of
// stages 0..P−1 in order, when Recompute reports true the recompute slots
// of stages 0..P−1 in order, the backward slots of stages P−1..0 in order,
// then EndMicro. The loss is returned by the last stage's forward slot.
//
// Concurrency contract: a slot call touches only the named stage's
// parameters and the microbatch's private activation state, so calls are
// safe to overlap when both the stage AND the microbatch differ; all slots
// of one stage must be serialized (ordered) with each other, with that
// stage's commit jobs (Commit) and with its Restore, and a microbatch's
// chain must run in chain order. An engine may keep up to min(P, N)
// consecutive chains in flight, N the microbatches of a minibatch, so a
// microbatch's in-flight state may live in slot s mod N.
// BeginMicro/EndMicro must be ordered (happen-before) with respect to the
// slots they bracket, and every stage must be restored after its last
// slot and commit job before Stream returns.
type Host interface {
	// Stages returns P, the number of pipeline stages.
	Stages() int
	// Recompute reports whether the chains of the stream make the
	// Appendix D recompute climb.
	Recompute() bool
	// MicroBase returns the global microbatch counter at the start of the
	// stream, read once per stream: microbatch k of its minibatch j has
	// s = MicroBase() + j·N + k.
	MicroBase() int

	// BeginMicro opens microbatch s over the given sample indices,
	// acquiring its in-flight state.
	BeginMicro(s int, mb []int)
	// StageForward runs the stage's forward slot for microbatch s on the
	// weights that slot reads. The last stage returns the microbatch's mean
	// loss (other stages return 0).
	StageForward(s, stage int) float64
	// StageRecompute runs the stage's recompute slot: the forward segment
	// again, from scratch at stage 0, on the recompute-delayed weights.
	StageRecompute(s, stage int)
	// StageBackward runs the stage's backward slot for microbatch s,
	// accumulating the stage's parameter gradients.
	StageBackward(s, stage int)
	// EndMicro closes microbatch s and releases its in-flight state.
	EndMicro(s int)
	// BadLoss reports whether a loss is non-finite or above the cap.
	BadLoss(loss float64) bool

	// Restore points the stage's parameters back at the live master
	// weights.
	Restore(stage int)
}

// Commit is the update a stream runs inside the pipeline when the
// trainer commits alone (internal/core's host implements it). After the
// last backward slot of minibatch k at a stage, the engine runs that
// stage's commit job in the stage's serialization domain: PrepareStage,
// then — when Clips reports true — the clip fold, which needs every
// stage's partial and is the commit's one sync point, then StepStage. A
// commit job may find the stage's parameters pointing at a version a slot
// installed; StepStage steps the masters.
//
// The wait rule that lets minibatch k+1 enter while k drains: a slot at
// stage i of minibatch k waits for stage i's commits of every earlier
// minibatch of the stream — except a forward slot, which waits only for
// the commit that produced the version it reads, the Lag most recent
// commits being ones it does not need. Under that rule synchronous
// epochs, Hogwild delays and recompute need no case of their own.
type Commit interface {
	// Lag returns how many of the updates committed before microbatch s's
	// minibatch its forward slot at stage does not read: the minibatch
	// index of s less the version the slot reads, 0 when it reads the
	// newest, as every slot of a synchronous epoch does.
	Lag(s, stage int) int
	// Clips reports whether StepStage needs the clip fold: the scale
	// ClipScale derives from every stage's PrepareStage partial, summed in
	// stage order. Without it every stage steps under scale 1.
	Clips() bool
	// PrepareStage averages the stage's gradients over the minibatch's
	// nMicro microbatches and returns their sum of squares.
	PrepareStage(stage, nMicro int) float64
	// ClipScale converts the stage-ordered sum of the partials into the
	// clip factor.
	ClipScale(sumSq float64) float64
	// StepStage applies the stage's update under the clip factor and
	// pushes the stage's next weight version.
	StepStage(stage int, scale float64)
}

// Engine executes streams of minibatches against a Host.
type Engine interface {
	Name() string
	// Stream runs the minibatches of mbs — mbs[j] holds minibatch j's N
	// microbatch index sets — through h on workers that live for the
	// stream, and returns the mean microbatch loss of every minibatch it
	// completed, in order. With a Commit c each of them is committed by
	// the time Stream returns; with a nil c the caller commits, so mbs
	// holds one minibatch. On divergence Stream returns ErrDiverged and on
	// context cancellation ctx.Err(), with the losses of the minibatches
	// before the one that stopped it: the stopped minibatch and every
	// later one push no version, and whatever gradient their slots
	// accumulated is the caller's to drop. Either way every stage is
	// restored and every goroutine the stream started has exited when it
	// returns, so concurrent calls over distinct hosts are safe: every
	// replica of a data-parallel run drives its own pipeline through the
	// one engine value.
	Stream(ctx context.Context, h Host, mbs [][][]int, c Commit) ([]float64, error)
}

// WorkerTrack returns the trace track of worker i of the pipeline behind h
// (nil when tracing is off): where an engine records worker i's slots and
// commit jobs.
func WorkerTrack(h Host, i int) *trace.Track {
	tr, rep := trace.FromCarrier(h)
	if tr == nil {
		return nil // before building the name, which allocates on every untraced call
	}
	return tr.Track(rep, trace.TidWorkerBase+i, "worker "+strconv.Itoa(i))
}

// Reference is the single-goroutine engine: the paper's Appendix C.4
// "queue of weights per pipeline stage" simulation executed serially. It
// is the default engine and the semantic ground truth for every other
// engine.
type Reference struct{}

// NewReference returns the serial reference engine.
func NewReference() Reference { return Reference{} }

// Name identifies the engine.
func (Reference) Name() string { return "reference" }

// Stream executes the minibatches' chains serially, in program order:
// each stage's commit job right after its backward slot of the
// minibatch's last microbatch, and a clipping commit's steps after the
// fold that follows stage 0's.
func (Reference) Stream(ctx context.Context, h Host, mbs [][][]int, c Commit) ([]float64, error) {
	p := h.Stages()
	rec := h.Recompute()
	s := h.MicroBase()
	tk := WorkerTrack(h, 0)
	defer func() {
		for st := 0; st < p; st++ {
			h.Restore(st)
		}
	}()
	commits := NewCommits(c, p)
	losses := make([]float64, 0, len(mbs))
	for _, micros := range mbs {
		n := len(micros)
		lossSum := 0.0
		for k, mb := range micros {
			if err := ctx.Err(); err != nil {
				return losses, err
			}
			h.BeginMicro(s, mb)
			loss := 0.0
			for st := 0; st < p; st++ {
				t0 := tk.Now()
				loss = h.StageForward(s, st)
				tk.Span(trace.NameFwd, t0, st, s, 0)
			}
			lossSum += loss
			if h.BadLoss(loss) {
				h.EndMicro(s)
				return losses, ErrDiverged
			}
			if rec {
				for st := 0; st < p; st++ {
					t0 := tk.Now()
					h.StageRecompute(s, st)
					tk.Span(trace.NameRecompute, t0, st, s, 0)
				}
			}
			for st := p - 1; st >= 0; st-- {
				t0 := tk.Now()
				h.StageBackward(s, st)
				tk.Span(trace.NameBwd, t0, st, s, 0)
				if commits != nil && k == n-1 {
					commits.Job(tk, st, st+1, n)
				}
			}
			h.EndMicro(s)
			s++
		}
		if commits.Clips() {
			scale := commits.Scale()
			for st := 0; st < p; st++ {
				commits.Step(tk, st, st+1, scale)
			}
		}
		losses = append(losses, lossSum/float64(n))
	}
	return losses, nil
}
