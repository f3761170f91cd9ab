package core

import (
	"context"
	"fmt"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Elastic membership: mid-run scale-up. AcceptJoins parks joining
// worker connections; run() drains the park at minibatch boundaries —
// the only points with no optimizer state in flight — and admits each
// joiner with a live state handoff (the same replica.Group.Handoff push
// a checkpoint restore uses), then activates it in the replica group,
// which grows the reduce tree and commit plan to R+1. The same boundary
// also readmits demoted stragglers whose late replies have drained —
// the group's standbys — by the same two steps. Because a member
// that has seen the handoff is indistinguishable from one that trained
// from the start, and the curves are replica-count invariant, a
// post-join curve is bit-identical to a fresh (R+1)-replica run from
// the handed-off state.

// welcomeTimeout bounds the admission round-trip with one parked joiner
// (Welcome send + JoinOK reply + the handoff collectives) so a joiner
// that dies while parked cannot stall the training loop.
const welcomeTimeout = 30 * time.Second

// pendingJoin is one parked joiner: its connection and the capability
// spec it announced.
type pendingJoin struct {
	conn transport.MsgConn
	spec transport.JoinSpec
}

// AcceptJoins starts accepting mid-run join connections on lis: each
// accepted connection's join request is read and parked until the next
// minibatch boundary, where the run loop admits (or rejects) it. The
// accept loop runs until lis closes or the trainer does; Close releases
// the listener and every parked connection. Requires Config.Elastic.
// Call before or during Run; joiners that dial while no Run is active
// stay parked until the next Run reaches a boundary.
func (t *Trainer) AcceptJoins(lis transport.Listener) error {
	if !t.cfg.Elastic {
		return fmt.Errorf("core: AcceptJoins needs the elastic option (Config.Elastic)")
	}
	t.joinMu.Lock()
	if t.closed {
		t.joinMu.Unlock()
		return fmt.Errorf("core: AcceptJoins on a closed trainer")
	}
	if t.joinCtx == nil {
		t.joinCtx, t.joinCancel = context.WithCancel(context.Background())
	}
	ctx := t.joinCtx
	t.joinLis = append(t.joinLis, lis)
	t.joinMu.Unlock()
	go t.acceptJoins(ctx, lis)
	return nil
}

// acceptJoins is the accept-park loop for one listener. It owns nothing
// but the connection between Accept and park, so a trainer Close (which
// closes the listener and cancels ctx) unwinds it promptly.
func (t *Trainer) acceptJoins(ctx context.Context, lis transport.Listener) {
	for {
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		spec, err := transport.AcceptJoin(ctx, conn)
		if err != nil {
			conn.Close()
			continue
		}
		t.joinMu.Lock()
		closed := t.closed
		if !closed {
			t.pending = append(t.pending, pendingJoin{conn: conn, spec: spec})
		}
		t.joinMu.Unlock()
		if closed {
			conn.Close()
			return
		}
	}
}

// admitBoundary is run()'s per-minibatch membership hook: readmit
// drained standbys first (they already hold a connection and a built
// follower), then admit parked joiners. Both run on the run goroutine,
// so membership changes serialize against collectives and checkpoints
// by construction. A standby that fails its handoff is closed and gone;
// the run continues over the current members either way.
func (t *Trainer) admitBoundary() {
	if t.group == nil {
		return
	}
	for _, id := range t.group.ReadyStandbys() {
		if t.admit(id) == nil {
			t.ctlTrack().Instant(trace.NameRejoin, -1, -1, 0)
		}
	}
	t.admitJoins()
}

// admitJoins drains the parked-joiner queue: for each joiner whose
// capabilities match (and whose requested join step has arrived), send
// the Welcome spec, perform the live state handoff, and grow the
// replica group. A capability mismatch rejects that joiner without
// failing the run; joiners ahead of their JoinAt step stay parked.
func (t *Trainer) admitJoins() {
	t.joinMu.Lock()
	pend := t.pending
	t.pending = nil
	t.joinMu.Unlock()
	var parked []pendingJoin
	for _, pj := range pend {
		if pj.spec.JoinAt > t.step {
			parked = append(parked, pj)
			continue
		}
		// A joiner that is not admitted was told why (RejectJoin) and its
		// connection is closed; the run itself continues over the current
		// members.
		if t.admitOne(pj) == nil {
			t.ctlTrack().Instant(trace.NameJoin, -1, -1, 0)
		}
	}
	if len(parked) > 0 {
		t.joinMu.Lock()
		t.pending = append(parked, t.pending...)
		t.joinMu.Unlock()
	}
}

// admitOne admits a single parked joiner end to end: capability check,
// Welcome, handoff, activation. On any failure the connection is closed
// and an error returned; the caller decides whether the run cares.
func (t *Trainer) admitOne(pj pendingJoin) error {
	reject := func(format string, args ...any) error {
		err := fmt.Errorf(format, args...)
		ctx, cancel := context.WithTimeout(context.Background(), welcomeTimeout)
		transport.RejectJoin(ctx, pj.conn, err.Error())
		cancel()
		pj.conn.Close()
		return fmt.Errorf("core: rejecting joiner: %w", err)
	}
	if pj.spec.Stages != t.clock.P {
		return reject("joiner has %d stages, leader has %d", pj.spec.Stages, t.clock.P)
	}
	if pj.spec.Method != int(t.cfg.Method) {
		return reject("joiner trains method %d, leader method %d", pj.spec.Method, int(t.cfg.Method))
	}
	if pj.spec.T2 != (t.delta != nil) {
		return reject("joiner T2 %t, leader T2 %t", pj.spec.T2, t.delta != nil)
	}
	pos := t.group.Replicas() // the joiner's group position: the tail
	if pos+1 > t.clock.N {
		return reject("%d replicas would exceed the %d microbatches per minibatch", pos+1, t.clock.N)
	}
	ctx, cancel := context.WithTimeout(context.Background(), welcomeTimeout)
	m, err := transport.Welcome(ctx, pj.conn, t.spec(pos, pos+1, false))
	cancel()
	if err != nil {
		pj.conn.Close()
		return fmt.Errorf("core: %w", err)
	}
	t.arm(m)
	id, err := t.group.Park(m)
	if err != nil {
		m.Close()
		return err
	}
	return t.admit(id)
}

// admit performs the timed live state handoff to standby id — a parked
// joiner or a drained straggler — and applies the boundary's one
// membership transition: into the active group when the handoff
// succeeded (growing the reduce tree and commit plan by one), out of the
// run, closed, when it did not.
func (t *Trainer) admit(id int) error {
	start := time.Now()
	t0 := t.cfg.Trace.Now()
	to := replica.Active
	err := t.group.Handoff(id, t.store.History)
	if err != nil {
		err = fmt.Errorf("core: handoff: %w", err)
		to = replica.Gone
	} else {
		t.ctlTrack().Span(trace.NameHandoff, t0, -1, -1, 0)
		t.handoffNs += time.Since(start).Nanoseconds()
	}
	t.group.Transition(id, to)
	return err
}

// ElasticStats reports the elastic-membership counters: members
// admitted mid-run (fresh joins and standby rejoins), stragglers
// demoted to standby, and the cumulative wall time spent in state
// handoffs.
func (t *Trainer) ElasticStats() (joins, demotions int, handoffNs int64) {
	if t.group != nil {
		joins, demotions, _ = t.group.Stats()
	}
	return joins, demotions, t.handoffNs
}
