// Package replicated implements the multi-replica data-parallel execution
// engine: R pipeline replicas — the active members of the leader
// trainer's replica.Group (Config.Replicas, pipemare.WithReplicas) —
// each run a contiguous share of every minibatch's microbatches through
// their own inner engine (Reference or the concurrent stage-worker
// engine, so pipeline overlap composes with replication), concurrently.
// The group says who the members are and runs their chunks and
// collectives; this package is the engine.Engine over it: the per-Run
// lifecycle and one attempt at a minibatch's chains, ending in the
// deterministic tree all-reduce of the followers' per-microbatch
// gradients into the leader. The trainer then commits one shared optimizer
// step through the group — the ZeRO-style replica-sharded commit,
// replica.Group.Commit — and turns a replica.MemberError from either half
// into one Group.Transition and, when the minibatch's result was lost, a
// replay.
//
// Training curves are bit-identical to a single-replica run of the same
// global microbatch set under the Reference engine, for any R and either
// inner engine: see package replica for the determinism argument
// (contiguous ordered chunks, one-add-per-element gradient export, all
// reduction arithmetic at the tree root in global microbatch order,
// copy-only scatter/gather around location-independent shard arithmetic).
// The equivalence is pinned by tests at the repository root.
package replicated

import (
	"context"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
)

// Engine is the replicated data-parallel engine. It implements
// engine.Engine, engine.Lifecycle and replica.Aware. It keeps no
// membership of its own: the host's replica.Group says who is in the run
// and holds each in-process member's inner engine; this engine drives one
// minibatch attempt at a time over it. When its host leads no group (a
// single replica), it degenerates to its inner engine. An Engine instance
// must not be shared by concurrently running trainers.
type Engine struct {
	inner func() engine.Engine
	name  string

	h       engine.Host
	group   *replica.Group // the host's group; nil in the degenerate case
	solo    engine.Engine  // the degenerate case's inner engine
	running bool
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
	if lead, ok := h.(replica.Leader); ok {
		e.group = lead.Group()
	}
	if e.group != nil {
		e.group.Start(e.inner)
	} else {
		// Degenerate single-replica case: the inner engine drives the host
		// directly.
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
	e.solo, e.h, e.group = nil, nil, nil
	e.running = false
}

// Minibatch splits the minibatch across the replicas, runs the R chunk
// computations concurrently (each through its own inner engine), then
// tree-reduces the gradients into the leader. A member failure the run can
// survive comes back as a *replica.MemberError for the trainer to apply
// (see Group.RunChunks).
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	e.Start(h) // a no-op when already running over h
	if e.group == nil {
		return e.solo.Minibatch(ctx, h, micros)
	}
	if err := e.group.RunChunks(ctx, micros); err != nil {
		return 0, err
	}
	e.group.Reduce()
	return e.group.LossSum() / float64(len(micros)), nil
}
