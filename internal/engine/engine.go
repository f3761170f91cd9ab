// Package engine defines the pluggable execution-engine abstraction of the
// PipeMare reproduction. A trainer (internal/core.Trainer) owns the weight
// partition, version stores and technique state, and exposes the slot
// schedule to an Engine through the Host interface: one call per
// microbatch slot — forward, recompute-forward, backward — each of which
// installs the weight versions it reads before it computes. An Engine
// decides *how* those slots are scheduled onto goroutines, and nothing
// else: which version a slot reads is the trainer's business, and the
// update is the commit's (replica.Group.Commit), which runs after the
// engine has drained a minibatch's chains, split into Workers pieces by the
// one rule every commit follows (CommitPlan, commit.go).
//
// An engine is a scheduling policy and holds no run resources: whatever
// goroutines a Minibatch starts, it joins before it returns, so one engine
// value serves any number of hosts, one after another or at once.
//
// Two engines exist: Reference (this package) executes every slot on the
// calling goroutine — it is the original single-goroutine simulator and the
// semantic ground truth — and internal/engine/concurrent runs a
// work-stealing pool of W workers over the run queues of segments of
// consecutive stages with up to P microbatches in flight, overlapping the
// per-stage compute slots like a real fill/drain pipeline. Both produce
// bit-identical training curves for every worker count; the equivalence is
// pinned by tests at the repository root.
package engine

import (
	"context"
	"errors"
	"strconv"

	"pipemare/internal/trace"
)

// ErrDiverged is returned by Engine.Minibatch when a microbatch loss is
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
// of one stage must be serialized (ordered) with each other and with that
// stage's Restore, and a microbatch's chain must run in chain order — an
// engine may keep up to P chains in flight. BeginMicro/EndMicro must be
// ordered (happen-before) with respect to the slots they bracket, and
// every stage must be restored after the last chain before Minibatch
// returns.
type Host interface {
	// Stages returns P, the number of pipeline stages.
	Stages() int
	// Recompute reports whether the chains of the minibatch being executed
	// make the Appendix D recompute climb.
	Recompute() bool
	// MicroBase returns the global microbatch counter at the start of the
	// minibatch being executed; microbatch k of the minibatch has
	// s = MicroBase()+k.
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

// Engine executes one minibatch's microbatch chains — the micros slice
// holds the N microbatch index sets — against a Host, returning the mean
// microbatch loss with every stage restored to its master weights and the
// gradients of the N backward passes accumulated; committing them is the
// caller's next step. On divergence it returns ErrDiverged, on
// context cancellation ctx.Err(), the stages restored either way. Every
// goroutine a Minibatch starts has exited when it returns, so concurrent
// calls over distinct hosts are safe: every replica of a data-parallel run
// drives its own pipeline through the one engine value.
type Engine interface {
	Name() string
	Minibatch(ctx context.Context, h Host, micros [][]int) (float64, error)
	// Workers returns how many goroutines the engine runs a p-stage
	// pipeline's slots on: the number of pieces an in-process owner splits
	// its commit shard into.
	Workers(p int) int
}

// WorkerTrack returns the trace track of worker i of the pipeline behind h
// (nil when tracing is off): where an engine records worker i's slots and
// the commit its piece of the owner's shard.
func WorkerTrack(h Host, i int) *trace.Track {
	tr, rep := trace.FromCarrier(h)
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

// Workers returns 1: every slot runs on the calling goroutine.
func (Reference) Workers(int) int { return 1 }

// Minibatch executes the N microbatch chains serially.
func (Reference) Minibatch(ctx context.Context, h Host, micros [][]int) (float64, error) {
	p := h.Stages()
	rec := h.Recompute()
	base := h.MicroBase()
	tk := WorkerTrack(h, 0)
	defer func() {
		for st := 0; st < p; st++ {
			h.Restore(st)
		}
	}()
	lossSum := 0.0
	for k, mb := range micros {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		s := base + k
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
			return 0, ErrDiverged
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
		}
		h.EndMicro(s)
	}
	return lossSum / float64(len(micros)), nil
}
