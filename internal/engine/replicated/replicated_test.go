package replicated_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/engine/replicated"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// The behavioural coverage lives in internal/engine's contract tests
// (degenerate passthrough) and the repository-root equivalence tests
// (bit-identical curves for R∈{2,4} × inner engines); here we pin the
// construction surface.

func TestNameReflectsInnerEngine(t *testing.T) {
	if got := replicated.New().Name(); got != "replicated(reference)" {
		t.Fatalf("default Name() = %q, want replicated(reference)", got)
	}
	e := replicated.New(replicated.WithInner(func() engine.Engine { return concurrent.New() }))
	if got := e.Name(); got != "replicated(concurrent)" {
		t.Fatalf("Name() = %q, want replicated(concurrent)", got)
	}
}

func TestEngineIsReplicaAware(t *testing.T) {
	var e engine.Engine = replicated.New()
	if _, ok := e.(replica.Aware); !ok {
		t.Fatal("replicated.Engine must implement replica.Aware")
	}
	if _, ok := e.(engine.Lifecycle); !ok {
		t.Fatal("replicated.Engine must implement engine.Lifecycle")
	}
}

func TestStopWithoutStartIsIdempotent(t *testing.T) {
	e := replicated.New()
	e.Stop()
	e.Stop()
}

// stubMember is a minimal replica surface for the cancellation test: it
// records the commit-phase calls that must NOT happen when a minibatch
// unwinds on a canceled context.
type stubMember struct {
	p  int
	mu sync.Mutex

	commits int // PrepareStage + BeginStep + StepStage calls
	synced  int // SetStep (the tail of a handoff)
	imports int // ImportStageState (the gather)
}

func (m *stubMember) Stages() int                         { return m.p }
func (m *stubMember) Async() bool                         { return false }
func (m *stubMember) Recompute() bool                     { return false }
func (m *stubMember) MicroBase() int                      { return 0 }
func (m *stubMember) SetAsync(bool)                       {}
func (m *stubMember) StageRecompute(_, _ int)             {}
func (m *stubMember) Restore(int)                         {}
func (m *stubMember) BeginMicro(int, []int)               {}
func (m *stubMember) StageForward(_, _ int) float64       { return 0.5 }
func (m *stubMember) StageBackward(_, _ int)              {}
func (m *stubMember) EndMicro(int)                        {}
func (m *stubMember) BadLoss(float64) bool                { return false }
func (m *stubMember) ClipScale(float64) float64           { return 1 }
func (m *stubMember) ScaleStage(int, float64)             {}
func (m *stubMember) FinishStage(int)                     {}
func (m *stubMember) StageState(int) []*tensor.Tensor     { return []*tensor.Tensor{tensor.New(1)} }
func (m *stubMember) SetStageGrads(int, []*tensor.Tensor) {}
func (m *stubMember) SetEpoch(int)                        {}
func (m *stubMember) Step() int                           { return 0 }
func (m *stubMember) Epoch() int                          { return 0 }

func (m *stubMember) RestoreVersions(int, int, [][]*tensor.Tensor) {}

func (m *stubMember) PrepareStage(_, _ int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commits++
	return 0
}

func (m *stubMember) BeginStep() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commits++
}

func (m *stubMember) StepStage(int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.commits++
}

func (m *stubMember) TakeStageGrads(_ int, bufs []*tensor.Tensor) []*tensor.Tensor {
	if bufs == nil {
		bufs = []*tensor.Tensor{tensor.New(1)}
	}
	return bufs
}

func (m *stubMember) FoldStageGrads(int, []*tensor.Tensor) {}

func (m *stubMember) ImportStageState(int, []*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.imports++
}

func (m *stubMember) SetStep(int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.synced++
}

// stubLeader leads a group of itself and one follower, so the
// cancellation test exercises the commit protocol's gate.
type stubLeader struct {
	*stubMember
	follower *stubMember
	group    *replica.Group
}

func newStubLeader(t *testing.T, p int) *stubLeader {
	t.Helper()
	l := &stubLeader{stubMember: &stubMember{p: p}, follower: &stubMember{p: p}}
	l.group = replica.NewGroup(l, false)
	id, err := l.group.Park(l.follower)
	if err != nil {
		t.Fatal(err)
	}
	l.group.Transition(id, replica.Active)
	return l
}

func (l *stubLeader) Group() *replica.Group { return l.group }

var _ replica.Leader = (*stubLeader)(nil)

// blockingEngine wedges until its context is canceled — a stand-in for a
// replica whose compute hangs (a stalled worker, a stuck collective).
type blockingEngine struct{ entered chan struct{} }

func (b blockingEngine) Name() string { return "blocking" }

func (b blockingEngine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	close(b.entered)
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestCancelUnwindsBlockedMemberWithoutDeadlock pins the satellite
// contract: when one replica's compute blocks mid-minibatch, canceling
// the context must unwind the whole minibatch — the blocked member
// returns, the fan-in completes, and neither the tree reduce's commit nor
// its gather runs — instead of deadlocking the followers.
func TestCancelUnwindsBlockedMemberWithoutDeadlock(t *testing.T) {
	lead := newStubLeader(t, 2)
	entered := make(chan struct{})
	calls := 0
	e := replicated.New(replicated.WithInner(func() engine.Engine {
		calls++
		if calls == 2 { // the follower's inner engine wedges
			return blockingEngine{entered: entered}
		}
		return engine.NewReference()
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := e.Minibatch(ctx, lead, [][]int{{0}, {1}})
		done <- result{err}
	}()
	select {
	case <-entered: // the follower is wedged mid-minibatch
	case <-time.After(5 * time.Second):
		t.Fatal("follower engine never started")
	}
	cancel()
	select {
	case res := <-done:
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("Minibatch error = %v, want context.Canceled", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Minibatch deadlocked after cancellation with a blocked member")
	}
	e.Stop()
	for name, m := range map[string]*stubMember{"leader": lead.stubMember, "follower": lead.follower} {
		if m.commits != 0 {
			t.Fatalf("%s ran %d commit phases after cancellation, want none", name, m.commits)
		}
		if m.synced != 0 || m.imports != 0 {
			t.Fatalf("%s ran handoff/gather (%d/%d) after cancellation, want none", name, m.synced, m.imports)
		}
	}
}
