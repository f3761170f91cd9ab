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
	failAt string // "run", "prepare", "sync", "import" or ""
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

func (f *fakeRemote) RunChunk(ctx context.Context, start int, async bool, micros [][]int) ([]float64, [][][]*tensor.Tensor, error) {
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
	return losses, grads, nil
}

func (f *fakeRemote) PrepareStage(stage, nMicro int) float64 {
	if f.die("prepare") {
		return 0
	}
	return f.Member.PrepareStage(stage, nMicro)
}

func (f *fakeRemote) SetStep(step int) {
	if !f.die("sync") {
		f.Member.SetStep(step)
	}
}

func (f *fakeRemote) ImportStageState(stage int, src []*tensor.Tensor) {
	if !f.die("import") {
		f.Member.ImportStageState(stage, src)
	}
}

func (f *fakeRemote) BindContext(context.Context) {}

func (f *fakeRemote) SetID(id int) { f.id = id }

func (f *fakeRemote) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func (f *fakeRemote) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ready
}

func (f *fakeRemote) Rearm() {
	f.mu.Lock()
	f.rearms++
	f.ready = false
	f.mu.Unlock()
}

func (f *fakeRemote) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

var _ replica.Remote = (*fakeRemote)(nil)

// driveEngine is an inner engine that drives a compute wrapper's slots
// the way driveChunk does, or fails with err when it is set.
type driveEngine struct{ err error }

func (driveEngine) Name() string { return "drive" }

func (e driveEngine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	driveChunk(h.(*replica.Compute), micros, h.Stages())
	return 0, nil
}

func noRings(int) (int, [][]*tensor.Tensor) { return 0, nil }

// TestMembershipTransitions is the membership state machine as a table:
// from a four-member group — leader 0, in-process follower 1, remote
// followers 2 and 3 — each event hits one member, and the case pins how
// the group classifies it (a *MemberError naming the member, where it
// goes and whether the minibatch replays; or a plain error that aborts
// the run), then, after the one Transition the engine would apply, the
// member's state, the active count and the commit plan's owner count.
// The subject of every leaving edge is member 2 — not the tail — so the
// survivor above it shifts down a position while keeping its id.
func TestMembershipTransitions(t *testing.T) {
	const p = 4
	micros := [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	type fixture struct {
		g      *replica.Group
		lead   *fakeMember
		remote map[int]*fakeRemote // by member id
	}
	attempt := func(f *fixture) error {
		if err := f.g.RunChunks(context.Background(), micros); err != nil {
			return err
		}
		f.g.Reduce()
		return f.g.Commit(len(micros))
	}
	// admit is the trainer's boundary hook in miniature.
	admit := func(f *fixture, id int) error {
		if err := f.g.Handoff(id, noRings); err != nil {
			return err
		}
		f.g.Transition(id, replica.Active)
		return nil
	}
	cases := []struct {
		name        string
		sharded, ft bool
		engineErr   map[int]error // in-process member id → its inner engine's failure
		arm         func(f *fixture)
		event       func(f *fixture) error
		subject     int           // member id the case is about
		wantAbort   string        // non-empty: the event returns a plain error containing this
		wantTo      replica.State // the MemberError's destination, when the event faults
		wantReplay  bool
		wantState   replica.State // subject's state after the transition
		wantActive  int
	}{
		{name: "fatal during run", arm: func(f *fixture) { f.remote[2].failAt = "run" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: true, wantState: replica.Gone, wantActive: 3},
		{name: "fatal pre-step (sharded prepare)", sharded: true, ft: true,
			arm: func(f *fixture) { f.remote[2].failAt = "prepare" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: true, wantState: replica.Gone, wantActive: 3},
		{name: "fatal serial post-step", arm: func(f *fixture) { f.remote[2].failAt = "sync" }, event: attempt,
			subject: 2, wantTo: replica.Gone, wantReplay: false, wantState: replica.Gone, wantActive: 3},
		{name: "fatal sharded post-step", sharded: true, ft: true,
			arm: func(f *fixture) { f.remote[2].failAt = "import" }, event: attempt,
			subject: 2, wantAbort: "replica 2", wantState: replica.Active, wantActive: 4},
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
			f.remote[2].failAt = "sync"
			f.remote[2].SetStep(0)
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
			if m.epochSyncs != 1 || m.synced != 1 || m.rings != p {
				return fmt.Errorf("handoff pushed %d epoch syncs, %d full syncs, %d rings; want 1, 1, %d", m.epochSyncs, m.synced, m.rings, p)
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
			joiner.failAt = "sync"
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
		{name: "refuse sharded without fault tolerance", sharded: true,
			arm: func(f *fixture) { f.remote[2].failAt = "run" }, event: attempt,
			subject: 2, wantAbort: "died at run", wantState: replica.Active, wantActive: 4},
		{name: "refuse member without sticky errors", engineErr: map[int]error{1: errors.New("follower compute failed")}, event: attempt,
			subject: 1, wantAbort: "follower compute failed", wantState: replica.Active, wantActive: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fixture{lead: newFakeMember(p), remote: map[int]*fakeRemote{2: newFakeRemote(p), 3: newFakeRemote(p)}}
			g, err := replica.NewGroup(f.lead, []replica.Member{newFakeMember(p), f.remote[2], f.remote[3]}, tc.sharded, tc.ft)
			if err != nil {
				t.Fatal(err)
			}
			f.g = g
			built := 0 // Start builds the in-process members' engines in id order
			g.Start(func() engine.Engine {
				built++
				return driveEngine{err: tc.engineErr[built-1]}
			})
			defer g.Stop()
			if tc.arm != nil {
				tc.arm(f)
			}
			err = tc.event(f)
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
			if g.Replicas() != tc.wantActive || g.Plan().Owners() != tc.wantActive {
				t.Fatalf("%d active members, plan over %d owners; want %d and %d",
					g.Replicas(), g.Plan().Owners(), tc.wantActive, tc.wantActive)
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
			// takes its own transition, then the minibatch commits — under
			// the serial commit, every stage stepped once, by the leader.
			f.lead.stepped = make([]int, p)
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
			for st, n := range f.lead.stepped {
				if !tc.sharded && n != 1 {
					t.Fatalf("leader stepped stage %d %d times on the attempt after the transition, want 1", st, n)
				}
			}
		})
	}
}

// TestNewGroupRefusesUnknownMemberKind pins the entry check: a member
// that is neither in-process nor remote cannot be driven at all.
func TestNewGroupRefusesUnknownMemberKind(t *testing.T) {
	var bare struct{ replica.Member }
	bare.Member = newFakeMember(2)
	if _, err := replica.NewGroup(newFakeMember(2), []replica.Member{bare}, false, false); err == nil {
		t.Fatal("NewGroup accepted a member that is neither Local nor Remote")
	}
}
