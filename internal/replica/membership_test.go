package replica_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// fakeRemote is a replica.Remote over a fakeMember's collective surface
// that can be told where to fail: failAt names the operation at which its
// "connection" dies (the error latches, like a real proxy's), and
// runErr, when set, is returned from RunChunk without latching — the
// shape of a straggle or a cancellation.
type fakeRemote struct {
	replica.Member
	p      int
	id     int    // the id the group handed over (SetID)
	failAt string // "run", "prepare", "step", "state", "import" or ""
	runErr error

	mu     sync.Mutex
	err    error
	ready  bool
	closed bool
	rearms int
}

func newFakeRemote(p int) *fakeRemote {
	return &fakeRemote{Member: newFakeMember(p), p: p}
}

func (f *fakeRemote) die(at string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAt == at && f.err == nil {
		f.err = fmt.Errorf("fake: connection died at %s", at)
	}
	return f.err != nil
}

func (f *fakeRemote) RunChunk(ctx context.Context, start int, async, first bool, micros [][]int) ([]float64, [][][]*tensor.Tensor, error) {
	if f.runErr != nil {
		return nil, nil, f.runErr
	}
	if f.die("run") {
		return nil, nil, f.Err()
	}
	losses := make([]float64, len(micros))
	grads := make([][][]*tensor.Tensor, len(micros))
	for k := range micros {
		losses[k] = float64(100 + start + k)
		grads[k] = make([][]*tensor.Tensor, f.p)
		for st := range grads[k] {
			g := tensor.New(1)
			g.SetFlat(0, float64(start+k+1))
			grads[k][st] = []*tensor.Tensor{g}
		}
	}
	if first {
		// Chunk 0 ships its in-place sum: one row.
		for k := 1; k < len(grads); k++ {
			for st, g := range grads[k] {
				tensor.AddInto(grads[0][st][0], g[0])
			}
		}
		grads = grads[:1]
	}
	return losses, grads, nil
}

func (f *fakeRemote) PrepareStage(stage, nMicro int) float64 {
	if f.die("prepare") {
		return 0
	}
	return f.Member.PrepareStage(stage, nMicro)
}

func (f *fakeRemote) StepStage(stage int, scale float64) {
	if !f.die("step") {
		f.Member.StepStage(stage, scale)
	}
}

// StageState fails like a proxy's fetch: nil once the connection is dead.
func (f *fakeRemote) StageState(stage int) []*tensor.Tensor {
	if f.die("state") {
		return nil
	}
	return f.Member.StageState(stage)
}

func (f *fakeRemote) ImportStageState(stage int, src []*tensor.Tensor) {
	if !f.die("import") {
		f.Member.ImportStageState(stage, src)
	}
}

func (f *fakeRemote) SetStageState(stage, base int, snaps [][]*tensor.Tensor, rest []*tensor.Tensor) {
	if !f.die("import") {
		f.Member.SetStageState(stage, base, snaps, rest)
	}
}

func (f *fakeRemote) BindContext(context.Context) {}

func (f *fakeRemote) SetID(id int) { f.id = id }

func (f *fakeRemote) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func (f *fakeRemote) Rearm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.ready {
		return false
	}
	f.rearms++
	f.ready = false
	return true
}

func (f *fakeRemote) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

var _ replica.Remote = (*fakeRemote)(nil)

// driveEngine is a member's engine that drives its compute wrapper's
// slots the way driveChunk does, or fails with err when it is set.
type driveEngine struct{ err error }

func (driveEngine) Name() string { return "drive" }

func (e driveEngine) Stream(ctx context.Context, h engine.Host, mbs [][][]int, _ engine.Commit) ([]float64, error) {
	if e.err != nil {
		return nil, e.err
	}
	driveChunk(h.(*replica.Compute), mbs[0], h.Stages())
	return []float64{0}, nil
}

// TestMembershipTransitions is the membership state machine as a table:
// from a four-member fault-tolerant group — leader 0, in-process follower
// 1, remote followers 2 and 3, one stage each — each event hits one
// member, and the case pins how the group classifies it (a *MemberError
// naming the member, where it goes and whether the minibatch replays; or
// a plain error that aborts the run), then, after the one Transition the
// engine would apply, the member's state, the active count and the
// commit plan's owners. The subject of every leaving edge is member 2 —
// not the tail — so the survivor above it shifts down a position while
// keeping its id.
func TestMembershipTransitions(t *testing.T) {
	const p = 4
	micros := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	type fixture struct {
		g      *replica.Group
		lead   *fakeMember
		local  *fakeMember         // the in-process follower, id 1
		remote map[int]*fakeRemote // by member id
	}
	// members returns every fake member the fixture built, by id.
	members := func(f *fixture) []*fakeMember {
		ms := []*fakeMember{f.lead, f.local}
		for id := 2; id < 2+len(f.remote); id++ {
			ms = append(ms, f.remote[id].Member.(*fakeMember))
		}
		return ms
	}
	attempt := func(f *fixture) error {
		if _, err := f.g.Minibatch(context.Background(), micros); err != nil {
			return err
		}
		return f.g.Commit(len(micros))
	}
	// takenOver is attempt for a member that dies after the prepare phase:
	// the leader must have re-stepped its stage 2 and every survivor
	// imported the leader's result.
	takenOver := func(f *fixture) error {
		err := attempt(f)
		if f.lead.stepped[2] != 1 || f.local.state[2] != f.lead.state[2] || f.local.imported[2] != 1 {
			return fmt.Errorf("leader stepped the dead owner's stage %d times and the survivor imported it %d times (state %g, leader's %g); want once each",
				f.lead.stepped[2], f.local.imported[2], f.local.state[2], f.lead.state[2])
		}
		return err
	}
	// admit is the trainer's boundary hook in miniature.
	admit := func(f *fixture, id int) error {
		if err := f.g.Handoff(id); err != nil {
			return err
		}
		f.g.Transition(id, replica.Active)
		return nil
	}
	cases := []struct {
		name       string
		noFT       bool
		engineErr  map[int]error // in-process member id → its engine's failure
		arm        func(f *fixture)
		event      func(f *fixture) error
		subject    int           // member id the case is about
		wantAbort  string        // non-empty: the event returns a plain error containing this
		wantTo     replica.State // the MemberError's destination, when the event faults
		wantReplay bool
		wantState  replica.State // subject's state after the transition
		wantActive int
	}{
		{name: "fatal during run", arm: func(f *fixture) { f.remote[2].failAt = "run" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: true, wantState: replica.Gone, wantActive: 3},
		{name: "fatal pre-step (sharded prepare)",
			arm: func(f *fixture) { f.remote[2].failAt = "prepare" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: true, wantState: replica.Gone, wantActive: 3},
		{name: "fatal mid-step (leader takes over)",
			arm: func(f *fixture) { f.remote[2].failAt = "step" }, event: takenOver,
			subject: 2, wantTo: replica.Gone, wantReplay: false, wantState: replica.Gone, wantActive: 3},
		{name: "fatal fetching its state (leader takes over)",
			arm: func(f *fixture) { f.remote[2].failAt = "state" }, event: takenOver,
			subject: 2, wantTo: replica.Gone, wantReplay: false, wantState: replica.Gone, wantActive: 3},
		{name: "fatal sharded post-step",
			arm: func(f *fixture) { f.remote[2].failAt = "import" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: false, wantState: replica.Gone, wantActive: 3},
		{name: "straggler", arm: func(f *fixture) {
			f.remote[2].runErr = fmt.Errorf("%w: fake", replica.ErrStraggler)
		}, event: attempt,
			subject: 2, wantTo: replica.Standby, wantReplay: true, wantState: replica.Standby, wantActive: 3},
		{name: "straggler outranks a dead member", arm: func(f *fixture) {
			f.remote[2].runErr = fmt.Errorf("%w: fake", replica.ErrStraggler)
			f.remote[3].failAt = "run"
		}, event: attempt,
			subject: 2, wantTo: replica.Standby, wantReplay: true, wantState: replica.Standby, wantActive: 3},
		{name: "rejoin", event: func(f *fixture) error {
			f.g.Transition(2, replica.Standby)
			if ids := f.g.ReadyStandbys(); len(ids) != 0 {
				return fmt.Errorf("still-draining standby reported ready: %v", ids)
			}
			f.remote[2].ready = true
			ids := f.g.ReadyStandbys()
			if len(ids) != 1 || ids[0] != 2 || f.remote[2].rearms != 1 {
				return fmt.Errorf("ready standbys %v (rearmed %d times), want [2] rearmed once", ids, f.remote[2].rearms)
			}
			return admit(f, 2)
		}, subject: 2, wantState: replica.Active, wantActive: 4},
		{name: "standby broken while parked", event: func(f *fixture) error {
			f.g.Transition(2, replica.Standby)
			f.remote[2].failAt = "import"
			f.remote[2].ImportStageState(0, nil)
			if ids := f.g.ReadyStandbys(); len(ids) != 0 {
				return fmt.Errorf("broken standby reported ready: %v", ids)
			}
			return nil
		}, subject: 2, wantState: replica.Gone, wantActive: 3},
		{name: "join", event: func(f *fixture) error {
			f.g.Transition(2, replica.Gone)
			joiner := newFakeRemote(p)
			id, err := f.g.Park(joiner)
			if err != nil {
				return err
			}
			f.remote[id] = joiner
			if id != 4 || joiner.id != 4 || f.g.State(id) != replica.Standby || f.g.Replicas() != 3 {
				return fmt.Errorf("parked joiner: id %d (told %d) state %d with %d active, want a standby with id 4 beside 3 active", id, joiner.id, f.g.State(id), f.g.Replicas())
			}
			if err := admit(f, id); err != nil {
				return err
			}
			m := f.remote[id].Member.(*fakeMember)
			if m.handoffs != p {
				return fmt.Errorf("handoff pushed %d stage records, want %d", m.handoffs, p)
			}
			for st, n := range m.imported {
				if n != 1 {
					return fmt.Errorf("handoff imported stage %d %d times, want once", st, n)
				}
			}
			return nil
		}, subject: 4, wantState: replica.Active, wantActive: 4},
		{name: "join whose handoff fails", event: func(f *fixture) error {
			joiner := newFakeRemote(p)
			joiner.failAt = "import"
			id, err := f.g.Park(joiner)
			if err != nil {
				return err
			}
			f.remote[id] = joiner
			if err := admit(f, id); err == nil {
				return errors.New("handoff over a dead connection succeeded")
			}
			f.g.Transition(id, replica.Gone)
			return nil
		}, subject: 4, wantState: replica.Gone, wantActive: 4},

		// Refusals: failures no transition can absorb abort the run.
		{name: "refuse pos 0", engineErr: map[int]error{0: errors.New("leader compute failed")}, event: attempt,
			subject: 0, wantAbort: "leader compute failed", wantState: replica.Active, wantActive: 4},
		{name: "refuse context.Canceled", arm: func(f *fixture) { f.remote[2].runErr = context.Canceled }, event: attempt,
			subject: 2, wantAbort: "context canceled", wantState: replica.Active, wantActive: 4},
		{name: "refuse sharded without fault tolerance", noFT: true,
			arm: func(f *fixture) { f.remote[2].failAt = "run" }, event: attempt,
			subject: 2, wantAbort: "died at run", wantState: replica.Active, wantActive: 4},
		{name: "refuse mid-step without fault tolerance", noFT: true,
			arm: func(f *fixture) { f.remote[2].failAt = "step" }, event: attempt,
			subject: 2, wantAbort: "replica 2", wantState: replica.Active, wantActive: 4},
		{name: "refuse member without sticky errors", engineErr: map[int]error{1: errors.New("follower compute failed")}, event: attempt,
			subject: 1, wantAbort: "follower compute failed", wantState: replica.Active, wantActive: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fixture{lead: newFakeMember(p), local: newFakeMember(p), remote: map[int]*fakeRemote{2: newFakeRemote(p), 3: newFakeRemote(p)}}
			f.lead.engErr, f.local.engErr = tc.engineErr[0], tc.engineErr[1]
			g := replica.NewGroup(f.lead, !tc.noFT)
			if err := g.Admit(f.local, f.remote[2], f.remote[3]); err != nil {
				t.Fatal(err)
			}
			f.g = g
			if tc.arm != nil {
				tc.arm(f)
			}
			err := tc.event(f)
			var me *replica.MemberError
			switch {
			case tc.wantAbort != "":
				if err == nil || errors.As(err, &me) || !strings.Contains(err.Error(), tc.wantAbort) {
					t.Fatalf("event returned %v, want a plain error mentioning %q", err, tc.wantAbort)
				}
			case errors.As(err, &me):
				if me.ID != tc.subject || me.To != tc.wantTo || me.Replay != tc.wantReplay {
					t.Fatalf("classified as member %d → state %d, replay %t; want member %d → state %d, replay %t",
						me.ID, me.To, me.Replay, tc.subject, tc.wantTo, tc.wantReplay)
				}
				g.Transition(me.ID, me.To)
			case err != nil:
				t.Fatal(err)
			case tc.wantTo != replica.Gone || tc.wantReplay:
				t.Fatal("event returned nil, want a member fault")
			}
			if got := g.State(tc.subject); got != tc.wantState {
				t.Fatalf("member %d in state %d after the event, want %d", tc.subject, got, tc.wantState)
			}
			if g.Replicas() != tc.wantActive || g.Plan().OwnerOf(p-1) != tc.wantActive-1 {
				t.Fatalf("%d active members, the last stage owned by position %d; want %d and %d",
					g.Replicas(), g.Plan().OwnerOf(p-1), tc.wantActive, tc.wantActive-1)
			}
			if r := f.remote[tc.subject]; r != nil && r.closed != (tc.wantState == replica.Gone) {
				t.Fatalf("member %d closed = %t in state %d: only a gone member's connection closes", tc.subject, r.closed, tc.wantState)
			}
			if tc.wantAbort != "" {
				return
			}
			// Whatever the edge, the group it leaves behind trains. Run the
			// engine's recovery loop over it: a fault that lost the race to
			// the one just handled resurfaces through its sticky error and
			// takes its own transition, then the minibatch commits — every
			// stage stepped once, by its owner among the active members.
			for _, m := range members(f) {
				m.stepped = make([]int, p)
			}
			for _, r := range f.remote {
				r.failAt, r.runErr = "", nil
			}
			for g.ResetGrads(); ; g.ResetGrads() {
				err := attempt(f)
				if !errors.As(err, &me) {
					if err != nil {
						t.Fatalf("attempt after the transition: %v", err)
					}
					break
				}
				g.Transition(me.ID, me.To)
			}
			for st := 0; st < p; st++ {
				n := 0
				for _, m := range members(f) {
					n += m.stepped[st]
				}
				if n != 1 {
					t.Fatalf("stage %d stepped %d times on the attempt after the transition, want 1", st, n)
				}
			}
		})
	}
}

// TestNewGroupRefusesUnknownMemberKind pins the new group's entry check,
// which every follower passes through (Park): a member that is neither
// in-process nor remote cannot be driven at all.
func TestNewGroupRefusesUnknownMemberKind(t *testing.T) {
	var bare struct{ replica.Member }
	bare.Member = newFakeMember(2)
	if _, err := replica.NewGroup(newFakeMember(2), false).Park(bare); err == nil {
		t.Fatal("Park accepted a member that is neither Local nor Remote")
	}
}
