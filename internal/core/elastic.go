package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// Elastic membership: mid-run scale-up. AcceptJoins parks joining
// worker connections; run() drains the park at minibatch boundaries —
// the only points with no optimizer state in flight — and admits each
// joiner the one way every follower enters (Trainer.enter): the hello,
// then the live state handoff (the same replica.Group.Handoff push a
// checkpoint restore uses), then activation in the replica group, which
// grows the chunk split and commit plan to R+1. The same boundary also
// readmits demoted stragglers whose late replies have drained — the
// group's standbys — by the last two steps. Because a member that has
// seen the handoff is indistinguishable from one that trained from the
// start, and the curves are replica-count invariant, a post-join curve is
// bit-identical to a fresh (R+1)-replica run from the handed-off state.

// welcomeTimeout bounds the leader's wait on one joiner — for its join
// request, and for its answer to the hello that admits it — so a dialer
// that never speaks, or a joiner that dies while parked, stalls neither the
// accept path nor the training loop.
const welcomeTimeout = 30 * time.Second

// pendingJoin is one parked joiner: its connection and the earliest
// leader step it asked to be admitted at.
type pendingJoin struct {
	conn   transport.MsgConn
	joinAt int
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

// acceptJoins is the accept loop for one listener. Each connection's join
// request is read on a goroutine of its own (park), so a dialer that never
// sends one holds up no later joiner; a trainer Close (which closes the
// listener and cancels ctx) unwinds both.
func (t *Trainer) acceptJoins(ctx context.Context, lis transport.Listener) {
	for {
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		go t.park(ctx, conn)
	}
}

// park reads one accepted connection's join request, under welcomeTimeout,
// and parks the joiner until the boundary it asked for; a connection that
// sends none in time, or arrives at a closed trainer, is closed. The
// context the request is read under ends only after that, so the
// connection's Recv can tell when its joiner is parked: by the time the
// context is done, the next minibatch boundary sees the joiner.
func (t *Trainer) park(ctx context.Context, conn transport.MsgConn) {
	rctx, cancel := context.WithTimeout(ctx, welcomeTimeout)
	defer cancel()
	joinAt, err := transport.AcceptJoin(rctx, conn)
	t.joinMu.Lock()
	parked := err == nil && !t.closed
	if parked {
		t.pending = append(t.pending, pendingJoin{conn: conn, joinAt: joinAt})
	}
	t.joinMu.Unlock()
	if !parked {
		conn.Close()
	}
}

// admitBoundary is run()'s stream-boundary membership hook — every
// minibatch boundary of a replicated trainer — which readmits
// drained standbys first (they already hold a connection and a built
// follower), then admits parked joiners. Both run on the run goroutine,
// so membership changes serialize against collectives and checkpoints
// by construction. A standby that fails its handoff is closed and gone;
// the run continues over the current members either way.
func (t *Trainer) admitBoundary() {
	for _, id := range t.group.ReadyStandbys() {
		start := time.Now()
		if t.admit(id) == nil {
			t.admitted(start, trace.NameRejoin)
		}
	}
	t.admitJoins()
}

// admitted counts one mid-run admission that began at start — ElasticStats
// reports these, not the followers New admits — and marks it on the
// control track.
func (t *Trainer) admitted(start time.Time, name string) {
	t.joins++
	t.handoffNs += time.Since(start).Nanoseconds()
	t.ctlTrack().Instant(name, -1, -1, 0)
}

// admitJoins drains the parked-joiner queue: every joiner whose requested
// join step has arrived is admitted (admitOne); the others stay parked. A
// joiner that cannot be admitted — refused by its own worker, by the
// replica cap, or by the handoff — is closed without failing the run.
func (t *Trainer) admitJoins() {
	t.joinMu.Lock()
	pend := t.pending
	t.pending = nil
	t.joinMu.Unlock()
	var parked []pendingJoin
	for _, pj := range pend {
		if pj.joinAt > t.steps() {
			parked = append(parked, pj)
			continue
		}
		start := time.Now()
		if t.admitOne(pj) == nil {
			t.admitted(start, trace.NameJoin)
		}
	}
	if len(parked) > 0 {
		t.joinMu.Lock()
		t.pending = append(parked, t.pending...)
		t.joinMu.Unlock()
	}
}

// admitOne admits a single parked joiner at the tail of the group: the
// hello with the spec of that position — the worker builds its follower,
// or refuses with its reason — then the entry every follower takes. On
// any failure the connection is closed and an error returned.
func (t *Trainer) admitOne(pj pendingJoin) error {
	pos := t.group.Replicas()
	ctx, cancel := context.WithTimeout(context.Background(), welcomeTimeout)
	defer cancel()
	if pos+1 > t.clock.N {
		err := fmt.Errorf("%d replicas would exceed the %d microbatches per minibatch", pos+1, t.clock.N)
		transport.RejectJoin(ctx, pj.conn, err.Error())
		pj.conn.Close()
		return fmt.Errorf("core: rejecting joiner: %w", err)
	}
	m, err := transport.NewRemoteMember(ctx, pj.conn, t.spec(pos, pos+1))
	if err != nil {
		pj.conn.Close()
		return fmt.Errorf("core: %w", err)
	}
	return t.enter(m)
}

// enter brings follower m into the run the one way there is: parked in the
// replica group as a standby — which gives it its stable id — and admitted
// by the state handoff. New enters every initial follower, in process or
// dialled, and the boundary every joiner.
func (t *Trainer) enter(m replica.Member) error {
	if rm, ok := m.(*transport.RemoteMember); ok {
		t.arm(rm)
	}
	id, err := t.group.Park(m)
	if err != nil {
		if c, ok := m.(io.Closer); ok {
			c.Close()
		}
		return fmt.Errorf("core: %w", err)
	}
	return t.admit(id)
}

// admit performs the live state handoff to standby id — a follower
// entering at launch, a joiner, or a drained straggler — and applies the
// one membership transition that follows: into the active group when the
// handoff succeeded (growing the chunk split and commit plan by one), out
// of the run, closed, when it did not.
func (t *Trainer) admit(id int) error {
	t0 := t.cfg.Trace.Now()
	to := replica.Active
	err := t.handoff(id)
	if err != nil {
		err, to = fmt.Errorf("core: handoff: %w", err), replica.Gone
	} else {
		t.ctlTrack().Span(trace.NameHandoff, t0, -1, -1, 0)
	}
	t.group.Transition(id, to)
	return err
}

// handoff is Group.Handoff to member id. An in-process follower refuses a
// stage state of another layout by panicking (checkStage), as a worker's
// follower does before its serve loop turns the panic into an error reply;
// here too it becomes the handoff's error, so a CloneTask that built
// another model fails New instead of crashing it.
func (t *Trainer) handoff(id int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replica %d: %v", id, r)
		}
	}()
	return t.group.Handoff(id, t.store.History)
}

// ElasticStats reports the elastic-membership counters: members admitted
// mid-run (fresh joins and standby rejoins, not the followers New
// admits), stragglers demoted to standby, and the cumulative wall time
// spent admitting them (hello and state handoff).
func (t *Trainer) ElasticStats() (joins, demotions int, handoffNs int64) {
	return t.joins, t.group.Demotions(), t.handoffNs
}
