package pipemare

import (
	"context"
	"fmt"
	"time"

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
// accepts a single connection on lis, builds the follower from task and
// opts for the spec the leader's hello announces, and serves the leader's
// collectives until the leader says goodbye (Trainer.Close), the
// connection drops, or ctx ends. A clean goodbye returns nil. task and
// opts must build the leader's model architecture, dtype and options (the
// same method and technique flags — the hello checks those — and the same
// data); the starting weights need not match, because the leader's state
// handoff replaces every tensor the follower trains from and refuses, by
// stage and tensor, one of another layout or dtype.
//
// The leader's hello fixes the follower's replica id, replica count
// and fault tolerance, so the same worker invocation serves any slot; a
// WithEngine option selects the engine the follower runs its microbatch
// chunks with (default Reference), as it does for any trainer.
// WithTransport is a leader option and is rejected here.
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
// share: core.NewFollower over the worker's task and resolved options for
// the leader's spec.
func followerBuilder(task Task, s *settings, opt Optimizer) transport.Builder {
	return func(spec transport.Spec) (replica.Local, error) {
		return core.NewFollower(task, opt, s.sched, s.cfg, spec)
	}
}

// JoinFollower joins a *running* leader mid-run as a fresh follower
// replica: it dials the leader's join listener (Trainer.AcceptJoins on
// a WithElastic leader), asks to be admitted, and waits — arbitrarily
// long; admission happens at a minibatch boundary of the leader's
// choosing, or at the WithJoinAt step — for the leader's hello. From
// there it is ServeFollower's session: it builds the local follower from
// the hello's spec, receives the live state handoff, and serves the
// leader's collectives until the leader says goodbye (a clean goodbye
// returns nil), the connection drops, or ctx ends. A joiner the leader
// cannot use returns the reason: its own (another method, T2 flag or
// stage count), the handoff's (another stage layout or dtype), or the
// leader's (the replica cap). The dial (with the dialer's backoff) is
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
	return transport.ServeJoin(ctx, conn, s.joinAt, followerBuilder(task, s, opt))
}
