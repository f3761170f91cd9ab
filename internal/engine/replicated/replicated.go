// Package replicated implements the multi-replica data-parallel execution
// engine: R pipeline replicas — the active members of the leader
// trainer's replica.Group (Config.Replicas, pipemare.WithReplicas) —
// each run a contiguous share of every minibatch's microbatches through
// their own inner engine (Reference or the concurrent stage-worker
// engine, so pipeline overlap composes with replication), concurrently.
// The group says who the members are, runs their chunks and collectives,
// and applies membership changes; this package is the engine.Engine over
// it: the per-Run lifecycle, one minibatch attempt, and the recovery loop
// that turns a replica.MemberError into one Group.Transition. One shared
// optimizer step commits after a deterministic tree all-reduce of the
// followers' per-microbatch gradients: leader-serial with a full-state
// broadcast when the sharded step is off, or — the default for R > 1 —
// the ZeRO-style replica-sharded commit in which every replica steps only
// its own stage shard against its local shard of the optimizer state and
// the stepped weights all-gather back (replica.Group.Commit).
//
// Training curves are bit-identical to a single-replica run of the same
// global microbatch set under the Reference engine, for any R, either
// inner engine and either commit mode: see package replica for the
// determinism argument (contiguous ordered chunks, one-add-per-element
// gradient export, all reduction arithmetic at the tree root in global
// microbatch order, copy-only scatter/gather around location-independent
// shard arithmetic). The equivalence is pinned by tests at the repository
// root.
package replicated

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/trace"
)

// Engine is the replicated data-parallel engine. It implements
// engine.Engine, engine.Lifecycle and replica.Aware. It keeps no
// membership of its own: the host's replica.Group says who is in the run
// and holds each in-process member's inner engine; this engine drives one
// minibatch attempt at a time over it and owns the recovery loop. When
// its host leads no group (a single replica), it degenerates to its inner
// engine. An Engine instance must not be shared by concurrently running
// trainers.
type Engine struct {
	inner func() engine.Engine
	name  string

	h       engine.Host
	group   *replica.Group // the host's group; nil in the degenerate case
	solo    engine.Engine  // the degenerate case's inner engine
	running bool

	// ctl is the leader's control track (nil when tracing is off).
	// Eviction and replay instants are emitted from Minibatch, which runs
	// on the trainer's run goroutine — the control track's single writer.
	ctl *trace.Track
}

// Option configures the engine.
type Option func(*Engine)

// WithInner sets the factory for the per-replica inner engines (default:
// the serial Reference engine). A factory — rather than an instance — is
// required because each replica's pipeline needs its own engine state.
func WithInner(f func() engine.Engine) Option {
	return func(e *Engine) { e.inner = f }
}

// New returns a replicated data-parallel engine.
func New(opts ...Option) *Engine {
	e := &Engine{inner: func() engine.Engine { return engine.NewReference() }}
	for _, o := range opts {
		o(e)
	}
	e.name = "replicated(" + e.inner().Name() + ")"
	return e
}

// Name identifies the engine and its inner engine.
func (e *Engine) Name() string { return e.name }

// DrivesReplicas marks the engine replica-aware (replica.Aware).
func (e *Engine) DrivesReplicas() {}

// Start borrows the host's replica group and starts one inner engine per
// in-process member.
func (e *Engine) Start(h engine.Host) {
	if e.running {
		if e.h == h {
			return
		}
		e.Stop()
	}
	e.h, e.group = h, nil
	rec, rep := trace.FromCarrier(h)
	e.ctl = rec.Track(rep, trace.TidControl, "control")
	if lead, ok := h.(replica.Leader); ok {
		e.group = lead.Group()
	}
	if e.group != nil {
		e.group.Start(e.inner)
	} else {
		// Degenerate single-replica case: the inner engine drives the host
		// directly, commit included.
		e.solo = e.inner()
		if lc, ok := e.solo.(engine.Lifecycle); ok {
			lc.Start(h)
		}
	}
	e.running = true
}

// Stop stops the inner engines. The group itself — and any standby parked
// in it — belongs to the trainer and outlives the run.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	if e.group != nil {
		e.group.Stop()
	} else if lc, ok := e.solo.(engine.Lifecycle); ok {
		lc.Stop()
	}
	e.solo, e.h, e.group, e.ctl = nil, nil, nil, nil
	e.running = false
}

// Minibatch splits the minibatch across the replicas, runs the R chunk
// computations concurrently (each through its own inner engine), then
// tree-reduces the gradients into the leader and commits one shared
// optimizer step through the group — leader-serial + broadcast, or the
// replica-sharded owner protocol when the leader enables it.
//
// A member failure the run can survive (replica.MemberError — a dead or
// straggling remote follower under the serial commit, or any commit mode
// when the leader trains fault-tolerantly) does not abort it: the group
// takes the member out — closed and gone when it died, parked as a
// standby with its connection open when it was merely slow, to rejoin
// through the trainer's boundary hook once its late reply drains — and
// the interrupted minibatch replays when its result was lost with the
// member. The replayed minibatch — and the whole curve after it — is
// bit-identical to a fresh (R−1)-replica run from the same state, because
// per-minibatch results are replica-count-invariant (package replica).
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	if !e.running || e.h != h {
		e.Start(h)
	}
	if e.group == nil {
		return e.solo.Minibatch(ctx, h, micros)
	}
	for {
		loss, err := e.runOnce(ctx, micros)
		var me *replica.MemberError
		if !errors.As(err, &me) {
			return loss, err
		}
		if me.To == replica.Standby {
			e.ctl.Instant(trace.NameDemote, -1, -1, 0)
		} else {
			e.ctl.Instant(trace.NameEvict, -1, -1, 0)
		}
		e.group.Transition(me.ID, me.To)
		if !me.Replay {
			// The commit completed before the failure surfaced (serial
			// commit: the leader stepped and every survivor synced
			// independently) — the minibatch stands, no replay.
			return loss, nil
		}
		e.group.ResetGrads()
		e.ctl.Instant(trace.NameReplay, -1, -1, 0)
	}
}

// runOnce drives one attempt at the minibatch over the current group.
func (e *Engine) runOnce(ctx context.Context, micros [][]int) (float64, error) {
	if err := e.group.RunChunks(ctx, micros); err != nil {
		if errors.Is(err, engine.ErrDiverged) {
			return math.Inf(1), err
		}
		return 0, err
	}
	e.group.Reduce()
	loss := e.group.LossSum() / float64(len(micros))
	if err := e.group.Commit(len(micros)); err != nil {
		return loss, fmt.Errorf("replicated: commit: %w", err)
	}
	return loss, nil
}
