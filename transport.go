package pipemare

import (
	"context"
	"fmt"

	"pipemare/internal/core"
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
// accepts a single connection on lis, builds the follower for the spec the
// leader's hello announces, and serves the leader's collectives until the
// leader says goodbye (Trainer.Close), the connection drops, or ctx ends. A
// clean goodbye returns nil.
//
// The worker supplies only task (the leader's architecture over the same
// data; its starting weights do not matter, the state handoff replaces
// them), its optimizer and schedule (WithOptimizer, WithSchedule: a
// factory has no encoding, so a worker with another schedule steps its
// shard at its own rate) and its engine (WithEngine). Everything else —
// replica id and count, stage map, batch geometry, method and techniques,
// loss cap, dtype, fault tolerance — is the leader's recipe from the
// hello, so one worker invocation serves any slot; its other options are
// ignored, not checked. WithTransport is a leader option and is rejected.
func ServeFollower(ctx context.Context, lis Listener, task Task, opts ...Option) error {
	s, opt, err := resolveSettings(task, opts)
	if err != nil {
		return err
	}
	if len(s.dialers) > 0 {
		return fmt.Errorf("pipemare: WithTransport is a leader option; a follower serves, not dials")
	}
	return transport.Serve(ctx, lis, followerBuilder(task, s, opt))
}

// followerBuilder is the transport.Builder ServeFollower and JoinFollower
// share: core.NewFollower over the worker's task, optimizer, schedule,
// engine and trace recorder (WithTrace) for the leader's spec.
func followerBuilder(task Task, s *settings, opt Optimizer) transport.Builder {
	return func(spec transport.Spec) (replica.Local, error) {
		return core.NewFollower(task, opt, s.sched, s.cfg.Engine, s.cfg.Trace, spec)
	}
}

// JoinFollower joins a *running* leader mid-run as a fresh follower
// replica: it dials the leader's join listener (Trainer.AcceptJoins on
// a WithElastic leader), asks to be admitted, and waits — arbitrarily
// long; admission happens at a minibatch boundary of the leader's
// choosing, or at the WithJoinAt step — for the leader's hello. From
// there it is ServeFollower's session, with ServeFollower's contract: it
// builds the local follower from the hello's spec and the worker's task,
// optimizer, schedule and engine (its other recipe options are ignored,
// not checked), receives the live state handoff, and serves the leader's
// collectives until the leader says goodbye (a clean goodbye returns nil),
// the connection drops, or ctx ends. A joiner the leader cannot use
// returns the reason: its own (a stage map its model does not fit), the
// handoff's (another architecture) or the leader's (the replica cap). The
// dial (with the dialer's backoff) is
// bounded by WithDialTimeout; the wait for admission is bounded only by
// ctx.
func JoinFollower(ctx context.Context, d Dialer, task Task, opts ...Option) error {
	s, opt, err := resolveSettings(task, opts)
	if err != nil {
		return err
	}
	if len(s.dialers) > 0 {
		return fmt.Errorf("pipemare: WithTransport is a leader option; a joiner dials its leader directly")
	}
	dctx, cancel := context.WithTimeout(ctx, s.dialTimeout)
	conn, err := d.Dial(dctx)
	cancel()
	if err != nil {
		return err
	}
	defer conn.Close()
	return transport.ServeJoin(ctx, conn, s.joinAt, followerBuilder(task, s, opt))
}
