package pipemare

import (
	"context"
	"fmt"
	"time"

	"pipemare/internal/core"
	"pipemare/internal/engine"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/transport"
)

// Wire-transport surface (internal/transport): a leader process drives
// remote follower replicas with WithTransport(dialers...); each worker
// process hosts one follower with ServeFollower. Both transports — the
// in-process loopback pipe and real TCP sockets — speak the same framed
// binary protocol, so curves stay bit-identical to in-process replicas
// across the serialization boundary.
type (
	// Listener accepts framed transport connections (ServeFollower).
	Listener = transport.Listener
	// Dialer connects to a worker's endpoint (WithTransport).
	Dialer = transport.Dialer
)

// Loopback returns a connected in-process listener/dialer pair: the
// full wire protocol over net.Pipe, with zero network. Serve a follower
// on the listener from one goroutine and hand the dialer to
// WithTransport in another.
func Loopback() (Listener, Dialer) { return transport.Loopback() }

// ListenTCP listens for a leader connection on addr ("host:port"; port 0
// picks a free port — read it back from Addr).
func ListenTCP(addr string) (Listener, error) { return transport.ListenTCP(addr) }

// DialTCP returns a dialer for a worker's TCP endpoint that retries with
// exponential backoff and jitter until the WithDialTimeout budget ends,
// so a leader started before its workers converges.
func DialTCP(addr string) Dialer { return transport.NewTCPDialer(addr) }

// ServeFollower hosts one follower replica for a remote leader: it
// accepts a single connection on lis, rebuilds the follower from task
// and opts — which must construct the model, data and options exactly as
// the leader's process does (same seeds; the handshake checksums the
// initial weights to verify it) — and serves the leader's collectives
// until the leader says goodbye (Trainer.Close), the connection drops,
// or ctx ends. A clean goodbye returns nil.
//
// The leader's handshake fixes the follower's replica id, replica count
// and fault tolerance, so the same worker invocation serves any slot; a
// WithEngine option selects the engine that drives the worker's
// microbatch chunks (default Reference). WithTransport is a leader
// option and is rejected here.
func ServeFollower(ctx context.Context, lis Listener, task Task, opts ...Option) error {
	s, opt, err := resolveSettings(task, opts)
	if err != nil {
		return err
	}
	if len(s.dialers) > 0 {
		return fmt.Errorf("pipemare: WithTransport is a leader option; a follower serves, not dials")
	}
	inner := s.cfg.Engine
	if inner == nil {
		inner = engine.NewReference()
	}
	return transport.Serve(ctx, lis, followerBuilder(task, s, opt), inner)
}

// followerBuilder is the transport.Builder ServeFollower and
// JoinFollower share: rebuild the local follower trainer from the
// leader's announced spec, adopting the leader's resolved fault
// tolerance and partition costs. A spec announcing the leader-serial
// commit (Sharded false), which only an older leader can send, is refused:
// this worker trains the replica-sharded commit only.
func followerBuilder(task Task, s *settings, opt Optimizer) transport.Builder {
	return func(spec transport.Spec) (replica.Local, error) {
		fcfg := s.cfg
		fcfg.Engine = nil
		fcfg.Replicas = spec.Replicas
		// The leader decides fault tolerance and checkpointing: the
		// handshake propagates its resolved mode (so stage-state layouts
		// agree), and a follower never writes checkpoints of its own.
		fcfg.FaultTolerant = spec.FT
		fcfg.CheckpointDir = ""
		fcfg.Elastic = false // joining and accepting joins are disjoint roles
		if !spec.Sharded {
			return nil, fmt.Errorf("leader trains the leader-serial commit; this worker serves the replica-sharded commit only")
		}
		if got := int(fcfg.Method); got != spec.Method {
			return nil, fmt.Errorf("worker trains method %d, leader method %d", got, spec.Method)
		}
		if got := fcfg.T2D > 0; got != spec.T2 {
			return nil, fmt.Errorf("worker T2 %t, leader T2 %t", got, spec.T2)
		}
		if fcfg.Partition != pipeline.PartitionEven && len(spec.GroupCosts) > 0 {
			// Land on the leader's exact stage boundaries: reuse its cost
			// vector instead of re-estimating (a noisy local profile pass
			// must not skew this follower's partition).
			fcfg.GroupCosts = spec.GroupCosts
		}
		return core.NewFollower(task, opt, s.sched, fcfg, spec.Replica)
	}
}

// JoinFollower joins a *running* leader mid-run as a fresh follower
// replica: it dials the leader's join listener (Trainer.AcceptJoins on
// a WithElastic leader), announces the task shape it was built for, and
// waits — arbitrarily long; admission happens at a minibatch boundary
// of the leader's choosing, or at the WithJoinAt step — for the
// leader's Welcome. It then builds the local follower from the Welcome
// spec, receives the live state handoff, and serves the leader's
// collectives until the leader says goodbye (a clean goodbye returns
// nil), the connection drops, or ctx ends. Unlike ServeFollower, no
// initial-state agreement is required: every tensor the follower trains
// from arrives in the handoff, so only the task architecture and
// options must match. The dial (with the dialer's backoff) is bounded
// by WithDialTimeout; the wait for admission is bounded only by ctx.
func JoinFollower(ctx context.Context, d Dialer, task Task, opts ...Option) error {
	s, opt, err := resolveSettings(task, opts)
	if err != nil {
		return err
	}
	if len(s.dialers) > 0 {
		return fmt.Errorf("pipemare: WithTransport is a leader option; a joiner dials its leader directly")
	}
	p := s.cfg.Stages
	if p == 0 {
		p = len(task.Groups())
	}
	cap := transport.JoinSpec{
		Stages: p,
		Method: int(s.cfg.Method),
		T2:     s.cfg.T2D > 0,
		JoinAt: s.joinAt,
	}
	timeout := s.dialTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	dctx, cancel := context.WithTimeout(ctx, timeout)
	conn, err := d.Dial(dctx)
	cancel()
	if err != nil {
		return err
	}
	defer conn.Close()
	inner := s.cfg.Engine
	if inner == nil {
		inner = engine.NewReference()
	}
	return transport.ServeJoin(ctx, conn, cap, followerBuilder(task, s, opt), inner)
}
