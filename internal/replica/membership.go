// Membership: who is in the run, and the one transition that changes it.
//
//	              handoff                    fatal fault
//	standby ────────────────▶ active ───────────────────▶ gone
//	   ▲  │                     │                           ▲
//	   │  └─────────────────────┼───────────────────────────┘
//	   │    broken while parked │
//	   └────────────────────────┘
//	          straggler
//
// Every member is one record in Group.members with a stable id that is
// never reused. Every follower enters parked as a standby (Park) — at
// launch and mid-run alike — and a straggler is demoted to one; a standby
// becomes active after a live state handoff (Handoff); an active member
// whose connection dies — or a standby whose connection died while it sat
// out, or whose handoff failed — is gone. Transition is the only code
// that moves a record: it re-splits positions and re-derives the commit
// plan over the active members.
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
)

// State is a member's place in the membership state machine.
type State int

const (
	// Gone members are out of the run for good: never admitted, or closed.
	Gone State = iota
	// Active members hold a position in the chunk split and commit plan.
	Active
	// Standby members are alive and connected but sit out of both:
	// followers and joiners awaiting their handoff, and demoted stragglers
	// draining their late reply.
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
	// leader-side only — the trace pid and the "replica N" of error text —
	// and unlike a group position it never shifts when another member
	// leaves and is never handed to a newcomer.
	id    int
	state State

	remote Remote        // nil for an in-process member
	comp   *Compute      // in-process: the host wrapper its engine drives
	eng    engine.Engine // in-process: its trainer's engine (Local.Engine)
	chunk  *chunk        // this member's share of the minibatch in flight
}

// ErrStraggler marks a member failure caused by a chunk reply that
// missed its budget of consecutive heartbeat windows rather than by a
// broken transport: the member is demoted to standby rather than closed,
// on the windows alone, whether its heartbeats arrive or not. Its reply
// may still arrive; if the drain of that reply fails instead (a peer
// silent for ten windows is hung), the standby is dropped at the next
// boundary.
var ErrStraggler = errors.New("replica: straggler")

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
		rec.chunk = &chunk{p: g.p}
		v.SetID(rec.id)
	case Local:
		rec.comp = NewCompute(v)
		rec.chunk = &rec.comp.chunk
		rec.eng = v.Engine()
	default:
		return nil, fmt.Errorf("replica: member %T is neither in-process (Local) nor remote (Remote)", m)
	}
	g.nextID++
	g.members = append(g.members, rec)
	return rec, nil
}

// Park adds a follower — built or connected at launch, or a joiner that
// has answered the leader's hello — to the table as a standby and returns
// its id; Handoff and Transition(id, Active) admit it.
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
// down); entering Active appends it after the active members; Gone
// closes its connection. Every edge re-derives the commit plan over the
// resulting active members. It must be called with no collective in
// flight — from the trainer's recovery loop between attempts, or from its
// minibatch-boundary hook. The leader never moves.
func (g *Group) Transition(id int, to State) {
	i := g.index(id)
	if i <= 0 {
		return
	}
	if to == Standby {
		g.demotions++
	}
	g.move(g.members[i], to)
}

func (g *Group) move(m *member, to State) {
	i := slices.Index(g.members, m)
	g.members = slices.Delete(g.members, i, i+1)
	if m.state == Active {
		g.active--
	}
	switch to {
	case Active:
		g.members = slices.Insert(g.members, g.active, m)
		g.active++
	case Standby:
		g.members = append(g.members, m)
	case Gone:
		if m.remote != nil {
			m.remote.Close() // best effort: the connection is usually already dead
		}
	}
	m.state = to
	g.plan = engine.NewCommitPlan(g.p, g.active)
}

// run executes the member's chunk: through its engine in process, as a
// one-minibatch stream the group commits, or in one round trip to a
// remote member, whose returned losses and gradient exports land where
// reduce and lossSum read them.
func (m *member) run(ctx context.Context, micros [][]int) error {
	if m.remote == nil {
		_, err := m.eng.Stream(ctx, m.comp, [][][]int{micros}, nil)
		m.comp.EndChunk()
		return err
	}
	c := m.chunk
	losses, grads, err := m.remote.RunChunk(ctx, c.start, c.async, c.first, micros)
	if err != nil {
		return err
	}
	if len(losses) != c.n || len(grads) != c.rows() {
		return fmt.Errorf("replica: remote chunk returned %d losses and %d gradient export rows, want %d and %d", len(losses), len(grads), c.n, c.rows())
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
// in-process member gives no clean failure point, and a group without
// fault tolerance has lost the departing member's moment shard. A
// straggler leaves for Standby and always replays (its late result must
// not be used); anything else leaves for Gone with the caller's replay
// requirement.
func (g *Group) classify(m *member, err error, replay bool) error {
	switch {
	case m.remote == nil || !g.ft,
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("replica %d: %w", m.id, err)
	case errors.Is(err, ErrStraggler):
		return &MemberError{ID: m.id, To: Standby, Replay: true, Err: err}
	}
	return &MemberError{ID: m.id, To: Gone, Replay: replay, Err: err}
}

// ResetGrads returns every member's gradient accumulators to zero before
// a minibatch replays. Every chunk leaves its member's accumulators zero
// (see runChunks), but once the reduce has run they hold gradients: the
// leader's the reduced minibatch, and a surviving owner's whatever an
// interrupted scatter parked there.
//
// An in-process member's SetStageGrads hands back its old accumulators
// in exchange, so the staging is zeroed again before each member.
func (g *Group) ResetGrads() {
	for st := 0; st < g.p; st++ {
		g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
		for _, m := range g.members[1:g.active] {
			for _, t := range g.scatter[st] {
				t.Zero()
			}
			m.SetStageGrads(st, g.scatter[st])
		}
	}
}

// Handoff pushes the leader's live state to member id, a member call — for
// a remote member a wire request — at a time: every stage's whole state
// (Leader.HandoffState), then each stage's weight-version ring (rings returns its
// base version and snapshots, oldest to newest), whose newest version is
// the step count the member resumes at. It is
// the one way a follower becomes active — at launch, on a mid-run join, on
// a straggler's rejoin — and the checkpoint-restore re-synchronization: a
// member that has seen it, and is then framed with the epoch phase of each
// chunk, is indistinguishable from one that trained alongside the leader.
// A member whose connection fails latches the error and ignores the rest.
func (g *Group) Handoff(id int, rings func(stage int) (int, [][]*tensor.Tensor)) error {
	m := g.members[g.index(id)]
	for st := 0; st < g.p; st++ {
		m.SetStageState(st, g.lead.HandoffState(st))
	}
	for st := 0; st < g.p; st++ {
		base, snaps := rings(st)
		m.RestoreVersions(st, base, snaps)
	}
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
// Between minibatches every standby is remote: an in-process follower is
// one only while its trainer is being built.
func (g *Group) ReadyStandbys() []int {
	var ready []int
	for _, m := range slices.Clone(g.members[g.active:]) {
		switch {
		case m.err() != nil:
			g.move(m, Gone)
		case m.remote.Rearm():
			ready = append(ready, m.id)
		}
	}
	return ready
}

// Demotions reports how many stragglers the group has demoted to standby.
func (g *Group) Demotions() int { return g.demotions }

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
