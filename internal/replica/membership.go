// Membership: who is in the run, and the one transition that changes it.
//
//	           join / rejoin                 fatal fault
//	standby ────────────────▶ active ───────────────────▶ gone
//	   ▲  │                     │                           ▲
//	   │  └─────────────────────┼───────────────────────────┘
//	   │    broken while parked │
//	   └────────────────────────┘
//	          straggler
//
// Every member is one record in Group.members with a stable id that is
// never reused. A fresh joiner is parked as a standby (Park), a straggler
// is demoted to one; a standby becomes active after a live state handoff
// (Handoff); an active member whose connection dies — or a standby whose
// connection died while it sat out — is gone. Transition is the only code
// that moves a record: it re-splits positions, re-derives the commit plan
// over the active members and starts or stops the member's inner engine,
// whichever edge is taken.
//
// Determinism survives every edge for one reason: the per-minibatch curve
// is replica-count-invariant. The reduce is a pure left fold in global
// microbatch order for any R, chunks re-split contiguously over whoever
// is active, and the commit arithmetic is location-independent. The curve
// after a member leaves is therefore bit-identical to a fresh (R−1)-
// replica run from the same state, and the curve after one enters to a
// fresh (R+1)-replica run from the handed-off state — the invariants the
// equivalence suite pins.
package replica

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pipemare/internal/engine"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// State is a member's place in the membership state machine.
type State int

const (
	// Gone members are out of the run for good: never admitted, or closed.
	Gone State = iota
	// Active members hold a position in the reduce tree and commit plan.
	Active
	// Standby members are alive and connected but sit out of both: parked
	// joiners awaiting their handoff, and demoted stragglers draining
	// their late reply.
	Standby
)

// member is one record of the membership table. Whether the member is
// remote — runs its chunk over the wire, has sticky errors, binds a
// context, closes, can stand by — is resolved once, when the record
// enters the group, and read from the record thereafter.
type member struct {
	Member
	// id is the member's stable identity: the leader is 0, the initial
	// followers 1..R−1, every later joiner the next unused integer. It is
	// leader-side only — the trace pid, the "replica N" of error text, the
	// retry-jitter seed — and unlike a group position it never shifts when
	// another member leaves and is never handed to a newcomer.
	id    int
	state State

	remote Remote        // nil for an in-process member
	comp   *Compute      // in-process: the host wrapper its inner engine drives
	eng    engine.Engine // in-process: the inner engine, between Start and Stop
	chunk  *chunk        // this member's share of the minibatch in flight
	track  *trace.Track  // collectives track (nil when tracing is off)
}

// ErrStraggler marks a member failure caused by a missed collective
// deadline rather than a broken transport: the member is alive (its
// heartbeats flow, its reply will still arrive) but too slow to keep in
// the reduce tree, so it is demoted to standby rather than closed.
var ErrStraggler = errors.New("replica: collective deadline missed")

// MemberError reports a member failure the run can survive by taking the
// member out of the group. The trainer's step catches it, applies
// Transition(ID, To) and — when Replay is set — reruns the interrupted
// minibatch over the survivors.
type MemberError struct {
	ID     int   // the failed member's stable id
	To     State // Gone for a fatal failure, Standby for a straggler
	Replay bool  // whether the interrupted minibatch's result was lost
	Err    error
}

func (e *MemberError) Error() string {
	if e.To == Standby {
		return fmt.Sprintf("replica %d straggling (demotable): %v", e.ID, e.Err)
	}
	return fmt.Sprintf("replica %d failed (evictable): %v", e.ID, e.Err)
}

func (e *MemberError) Unwrap() error { return e.Err }

// enter adds a record for m to the table as a standby under the next
// unused id — the group is the only source of ids, and tells a remote
// member's proxy which one it got — resolving once what kind of member
// it is.
func (g *Group) enter(m Member) (*member, error) {
	rec := &member{Member: m, id: g.nextID, state: Standby}
	switch v := m.(type) {
	case Remote:
		rec.remote = v
		rec.chunk = &chunk{p: g.p, exports: true}
		v.SetID(rec.id)
	case Local:
		rec.comp = newCompute(v, rec.id == 0)
		rec.chunk = &rec.comp.chunk
	default:
		return nil, fmt.Errorf("replica: member %T is neither in-process (Local) nor remote (Remote)", m)
	}
	rec.track = g.rec.Track(rec.id, trace.TidCollectives, "collectives")
	g.nextID++
	g.members = append(g.members, rec)
	return rec, nil
}

// Park adds a freshly welcomed joiner to the table as a standby and
// returns its id; Handoff and Transition(id, Active) admit it.
func (g *Group) Park(m Member) (int, error) {
	rec, err := g.enter(m)
	if err != nil {
		return 0, err
	}
	return rec.id, nil
}

func (g *Group) index(id int) int {
	return slices.IndexFunc(g.members, func(m *member) bool { return m.id == id })
}

// Transition is the group's one membership change: it moves member id to
// state to. Leaving Active frees the member's position (those above shift
// down) and stops its inner engine; entering Active appends it at the
// tail of the reduce tree and starts one; Gone closes its connection.
// Every edge re-derives the commit plan over the resulting active
// members. It must be called with no collective in flight — from the
// trainer's recovery loop between attempts, or from its
// minibatch-boundary hook. The leader never moves.
func (g *Group) Transition(id int, to State) {
	i := g.index(id)
	if i <= 0 {
		return
	}
	m := g.members[i]
	switch {
	case to == Active:
		g.joins++
	case to == Standby:
		g.demotions++
	case m.state == Active:
		g.evictions++
	}
	g.move(m, to)
}

func (g *Group) move(m *member, to State) {
	i := slices.Index(g.members, m)
	g.members = slices.Delete(g.members, i, i+1)
	if m.state == Active {
		g.active--
		m.setEngine(nil)
	}
	switch to {
	case Active:
		g.members = slices.Insert(g.members, g.active, m)
		g.active++
		m.setEngine(g.inner)
	case Standby:
		g.members = append(g.members, m)
	case Gone:
		if m.remote != nil {
			m.remote.Close() // best effort: the connection is usually already dead
		}
	}
	m.state = to
	g.plan = engine.NewCommitPlan(g.p, g.active)
	g.sharded = g.shardable && g.active > 1
}

// setEngine replaces an in-process member's inner engine: the old one
// stops, and a new one from the factory (nil for none) starts over the
// member's compute wrapper. Remote members run their chunks through the
// inner engine of their own worker process.
func (m *member) setEngine(inner func() engine.Engine) {
	if m.comp == nil {
		return
	}
	if lc, ok := m.eng.(engine.Lifecycle); ok {
		lc.Stop()
	}
	m.eng = nil
	if inner != nil {
		m.eng = inner()
		if lc, ok := m.eng.(engine.Lifecycle); ok {
			lc.Start(m.comp)
		}
	}
}

// run executes the member's chunk: through the inner engine in process,
// or in one round trip to a remote member, whose returned losses and
// gradient exports land where Reduce and LossSum read them.
func (m *member) run(ctx context.Context, micros [][]int) error {
	if m.remote == nil {
		_, err := m.eng.Minibatch(ctx, m.comp, micros)
		return err
	}
	c := m.chunk
	losses, grads, err := m.remote.RunChunk(ctx, c.start, c.async, micros)
	if err != nil {
		return err
	}
	if len(losses) != c.n || len(grads) != c.n {
		return fmt.Errorf("replica: remote chunk returned %d losses and %d gradient exports, want %d", len(losses), len(grads), c.n)
	}
	copy(c.losses, losses)
	copy(c.grads, grads)
	return nil
}

// err returns the member's latched transport error; an in-process member
// has none.
func (m *member) err() error {
	if m.remote == nil {
		return nil
	}
	return m.remote.Err()
}

// firstFault returns the first active member with a latched error, and
// the error; (nil, nil) when all are healthy.
func (g *Group) firstFault() (*member, error) {
	for _, m := range g.members[:g.active] {
		if err := m.err(); err != nil {
			return m, err
		}
	}
	return nil, nil
}

// classify turns member m's failure into a *MemberError when the run can
// survive it by taking m out of the group, and into a plain wrapped
// error — which aborts the run — when it cannot: the leader never
// leaves, cancellation is the caller's intent rather than a fault, an
// in-process member gives no clean failure point, and a sharded commit
// without fault tolerance has lost the departing owner's moment shard.
// A straggler leaves for Standby and always replays (its late result
// must not be used); anything else leaves for Gone with the caller's
// replay requirement.
func (g *Group) classify(m *member, err error, replay bool) error {
	switch {
	case m.remote == nil || (g.sharded && !g.ft),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("replica %d: %w", m.id, err)
	case errors.Is(err, ErrStraggler):
		return &MemberError{ID: m.id, To: Standby, Replay: true, Err: err}
	}
	return &MemberError{ID: m.id, To: Gone, Replay: replay, Err: err}
}

// ResetGrads returns every member's gradient accumulators to zero before
// a minibatch replays. The leader needs it because its own chunk
// accumulates in place (a replay would double-count), and a surviving
// sharded-commit owner needs it because an interrupted scatter may have
// parked reduced gradients in its accumulators.
func (g *Group) ResetGrads() {
	for st := 0; st < g.p; st++ {
		g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
		for _, t := range g.scatter[st] {
			t.Zero()
		}
		for _, m := range g.members[1:g.active] {
			m.SetStageGrads(st, g.scatter[st])
		}
	}
}

// Handoff makes a full push of the leader's live state to member id; rings
// returns each stage's weight-version ring (base version, snapshots oldest
// to newest). It is both the checkpoint-restore re-synchronization and the
// live handoff a joiner or a rejoining standby receives: a member that has
// seen it is indistinguishable from one that trained alongside the leader.
func (g *Group) Handoff(id int, rings func(stage int) (int, [][]*tensor.Tensor)) error {
	m := g.members[g.index(id)]
	g.push(m, rings)
	if err := m.err(); err != nil {
		return fmt.Errorf("replica: syncing state to replica %d: %w", id, err)
	}
	return nil
}

// Resync hands the leader's state off to every active follower — the
// second half of a checkpoint restore.
func (g *Group) Resync(rings func(stage int) (int, [][]*tensor.Tensor)) error {
	for _, m := range g.members[1:g.active] {
		if err := g.Handoff(m.id, rings); err != nil {
			return err
		}
	}
	return nil
}

// ReadyStandbys returns the ids of the standbys that have finished
// draining and can rejoin, rearmed for readmission. A standby whose
// connection broke while it sat out is gone: readmission is impossible.
// Only remote members are ever standbys.
func (g *Group) ReadyStandbys() []int {
	var ready []int
	for _, m := range slices.Clone(g.members[g.active:]) {
		switch {
		case m.err() != nil:
			g.move(m, Gone)
		case m.remote.Ready():
			m.remote.Rearm()
			ready = append(ready, m.id)
		}
	}
	return ready
}

// Stats reports the membership changes over the group's lifetime:
// members admitted (joins and standby rejoins), stragglers demoted to
// standby, and active members evicted.
func (g *Group) Stats() (joins, demotions, evictions int) {
	return g.joins, g.demotions, g.evictions
}

// Close closes every remote member's connection, active and standby
// alike, joining the errors. It only reads the table, so — like the
// connection close it performs — it may be called while a collective is
// blocked on a hung peer, to unblock it.
func (g *Group) Close() error {
	var errs []error
	for _, m := range g.members {
		if m.remote != nil {
			if err := m.remote.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
