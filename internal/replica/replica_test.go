package replica_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/leakcheck"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// fakeMember is a minimal in-process replica with one scalar "parameter"
// per stage. StageBackward "accumulates" the gradient s+1 for microbatch s, so
// exported buffers carry the global microbatch identity, and the leader's
// FoldStageGrads records the sequence of values it receives — making the
// fold ORDER directly observable, the property the tree reduction must
// preserve.
type fakeMember struct {
	p      int
	engErr error // what its engine fails with (nil: it drives the chunk)
	mu     sync.Mutex
	acc    []float64 // per-stage accumulator
	folds  [][]float64

	// Commit recording: per-stage commit-phase call counts and
	// per-stage "state" scalars for the scatter/gather assertions.
	state    []float64 // per-stage post-step state (stepped by owner, imported elsewhere)
	prepared []int
	stepped  []int
	scales   []float64 // per-stage clip scale of the last StepStage
	imported []int
	asyncSet int // SetAsync calls
	rings    int // RestoreVersions calls: the tail of a handoff
}

func newFakeMember(p int) *fakeMember {
	return &fakeMember{p: p, acc: make([]float64, p), folds: make([][]float64, p),
		state: make([]float64, p), prepared: make([]int, p), stepped: make([]int, p),
		scales: make([]float64, p), imported: make([]int, p)}
}

func (f *fakeMember) Stages() int                 { return f.p }
func (f *fakeMember) Engine() engine.Engine       { return driveEngine{err: f.engErr} }
func (f *fakeMember) Async() bool                 { return true }
func (f *fakeMember) Recompute() bool             { return false }
func (f *fakeMember) MicroBase() int              { return 0 }
func (f *fakeMember) SetAsync(async bool)         { f.asyncSet++ }
func (f *fakeMember) StageRecompute(s, stage int) {}
func (f *fakeMember) Restore(stage int)           {}
func (f *fakeMember) BeginMicro(s int, mb []int)  {}
func (f *fakeMember) StageForward(s, stage int) float64 {
	if stage == f.p-1 {
		return float64(100 + s) // distinct per-microbatch losses
	}
	return 0
}

func (f *fakeMember) StageBackward(s, stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc[stage] += float64(s + 1)
}

func (f *fakeMember) EndMicro(s int)            {}
func (f *fakeMember) BadLoss(loss float64) bool { return false }
func (f *fakeMember) Lag(s, stage int) int      { return 0 }
func (f *fakeMember) Clips() bool               { return true }

func (f *fakeMember) PrepareStage(stage, nMicro int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prepared[stage]++
	return float64(stage + 1) // distinct partials: checks the stage-ordered fold
}

// ClipScale returns a factor that is not 1, so the test sees it handed to
// every owner's StepStage.
func (f *fakeMember) ClipScale(sumSq float64) float64 { return 0.25 }

// StepStage "steps" the stage by publishing the reduced gradient the owner
// holds into its state scalar, so the gather assertions can check that
// non-owners receive exactly the owner's post-step value, and records the
// clip scale it was handed.
func (f *fakeMember) StepStage(stage int, scale float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stepped[stage]++
	f.scales[stage] = scale
	f.state[stage] = 1000 + f.acc[stage]
	f.acc[stage] = 0
}

func (f *fakeMember) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	f.mu.Lock()
	defer f.mu.Unlock()
	if bufs == nil {
		bufs = []*tensor.Tensor{tensor.New(1)}
	}
	bufs[0].SetFlat(0, f.acc[stage])
	f.acc[stage] = 0
	return bufs
}

func (f *fakeMember) FoldStageGrads(stage int, bufs []*tensor.Tensor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.folds[stage] = append(f.folds[stage], bufs[0].FlatAt(0))
}

func (f *fakeMember) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acc[stage] = bufs[0].FlatAt(0)
}

func (f *fakeMember) StageState(stage int) []*tensor.Tensor {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := tensor.New(1)
	t.SetFlat(0, f.state[stage])
	return []*tensor.Tensor{t}
}

func (f *fakeMember) ImportStageState(stage int, src []*tensor.Tensor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.imported[stage]++
	f.state[stage] = src[0].FlatAt(0)
}

// The handoff's pair records like the gather's: a handoff imports every
// stage once.
func (f *fakeMember) HandoffState(stage int) []*tensor.Tensor { return f.StageState(stage) }

func (f *fakeMember) SetStageState(stage int, src []*tensor.Tensor) { f.ImportStageState(stage, src) }

func (f *fakeMember) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rings++
}

var _ replica.Leader = (*fakeMember)(nil)

// fakeLead is a leader fakeMember and the in-process followers its group
// is built over.
type fakeLead struct {
	*fakeMember
	followers []*fakeMember
}

// group builds the replica group over the leader and its followers.
func (f *fakeLead) group(t *testing.T) *replica.Group {
	t.Helper()
	var ms []replica.Member
	for _, m := range f.followers {
		ms = append(ms, m)
	}
	g := replica.NewGroup(f.fakeMember, false)
	if err := g.Admit(ms...); err != nil {
		t.Fatal(err)
	}
	return g
}

// driveChunk simulates an engine running replica r's chunk through its
// compute wrapper: a forward climb and a backward descent per microbatch,
// in chain order.
func driveChunk(c *replica.Compute, chunk [][]int, p int) {
	base := c.MicroBase()
	for k := range chunk {
		s := base + k
		c.BeginMicro(s, chunk[k])
		for st := 0; st < p; st++ {
			c.StageForward(s, st)
		}
		for st := p - 1; st >= 0; st-- {
			c.StageBackward(s, st)
		}
		c.EndMicro(s)
	}
}

// TestGroupReduceFoldsInGlobalMicrobatchOrder drives a 4-replica group
// over an unevenly divisible minibatch and checks the contract the
// bit-identical claim rests on: the followers take the chunks in group
// order and the leader the last; the first follower's in-place chunk is
// the fold prefix, copied into the leader's accumulators and taken out of
// its own; and the reduce then hands the leader every later microbatch's
// gradient exactly once, in global microbatch order, its own last.
func TestGroupReduceFoldsInGlobalMicrobatchOrder(t *testing.T) {
	const p, r, n = 3, 4, 10 // 10 microbatches over 4 replicas: chunks 3,3,2,2
	lead := &fakeLead{fakeMember: newFakeMember(p)}
	for i := 1; i < r; i++ {
		lead.followers = append(lead.followers, newFakeMember(p))
	}
	g := lead.group(t)
	if g.Replicas() != r {
		t.Fatalf("group has %d replicas, want %d", g.Replicas(), r)
	}
	micros := make([][]int, n)
	for i := range micros {
		micros[i] = []int{i}
	}
	loss, err := g.Minibatch(context.Background(), micros)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{3, 3, 2, 2} // by chunk
	start := 0
	for c, want := range wantSizes {
		i := (c + 1) % r // the group position holding chunk c
		if got := len(g.Compute(i).Losses()); got != want {
			t.Fatalf("chunk %d has %d microbatches, want %d", c, got, want)
		}
		if base := g.Compute(i).MicroBase(); base != start {
			t.Fatalf("replica %d starts at global microbatch %d, want %d", i, base, start)
		}
		start += want
	}

	// The leader's accumulators hold exactly chunk 0's fold, and the
	// follower that accumulated it kept none.
	wantPrefix := 1.0 + 2 + 3 // s = 0,1,2 → s+1
	for st := 0; st < p; st++ {
		if lead.acc[st] != wantPrefix || lead.followers[0].acc[st] != 0 {
			t.Fatalf("stage %d: leader holds %g and chunk 0's follower %g, want the prefix %g and 0",
				st, lead.acc[st], lead.followers[0].acc[st], wantPrefix)
		}
	}
	// Every stage received the later microbatches in global order.
	for st := 0; st < p; st++ {
		want := []float64{4, 5, 6, 7, 8, 9, 10} // s+1 for s = 3..9
		if got := fmt.Sprint(lead.folds[st]); got != fmt.Sprint(want) {
			t.Fatalf("stage %d folded %v, want global order %v", st, lead.folds[st], want)
		}
	}
	// Losses fold in global order too.
	wantLoss := 0.0
	for s := 0; s < n; s++ {
		wantLoss += float64(100 + s)
	}
	if wantLoss /= n; loss != wantLoss {
		t.Fatalf("mean loss %g, want %g", loss, wantLoss)
	}
}

// TestGroupShardedCommitProtocol drives the replica-sharded commit over
// fake members with an uneven stage count (P=5 across R=3: shards of 2, 2
// and 1 stages) and checks the ownership contract the determinism claim
// rests on: every stage is prepared and stepped exactly once, at its
// owner, and stepped with the one clip scale the orchestrator computed;
// the leader's reduced gradient reaches the owner by pure copy (and
// leaves the leader's accumulator empty); no member is sent a ring during
// the commit; and every non-owner imports exactly the owner's post-step
// state.
func TestGroupShardedCommitProtocol(t *testing.T) {
	const p, r = 5, 3
	lead := &fakeLead{fakeMember: newFakeMember(p)}
	for i := 1; i < r; i++ {
		lead.followers = append(lead.followers, newFakeMember(p))
	}
	g := lead.group(t)
	// Stand in for the reduce: the leader holds the fully reduced minibatch
	// gradient, one distinct scalar per stage.
	for st := 0; st < p; st++ {
		lead.acc[st] = float64(10 * (st + 1))
	}
	if err := g.Commit(4); err != nil {
		t.Fatal(err)
	}

	members := append([]*fakeMember{lead.fakeMember}, lead.followers...)
	wantOwner := []int{0, 0, 1, 1, 2} // contiguous shards 2/2/1
	for st := 0; st < p; st++ {
		want := 1000.0 + float64(10*(st+1))
		for i, m := range members {
			owns := wantOwner[st] == i
			if owns {
				if m.prepared[st] != 1 || m.stepped[st] != 1 {
					t.Fatalf("owner %d of stage %d ran prepare/step %d/%d times, want 1/1",
						i, st, m.prepared[st], m.stepped[st])
				}
				if m.scales[st] != 0.25 {
					t.Fatalf("owner %d stepped stage %d under scale %g, want the orchestrator's 0.25",
						i, st, m.scales[st])
				}
				if m.imported[st] != 0 {
					t.Fatalf("owner %d imported its own stage %d", i, st)
				}
			} else {
				if m.prepared[st] != 0 || m.stepped[st] != 0 {
					t.Fatalf("non-owner %d of stage %d ran commit phases %d/%d times, want none",
						i, st, m.prepared[st], m.stepped[st])
				}
				if m.imported[st] != 1 {
					t.Fatalf("non-owner %d imported stage %d %d times, want 1", i, st, m.imported[st])
				}
			}
			if m.state[st] != want {
				t.Fatalf("member %d stage %d state %g, want the owner's post-step %g", i, st, m.state[st], want)
			}
		}
	}
	for i, m := range members {
		if m.rings != 0 {
			t.Fatalf("member %d received a full-state push during the commit", i)
		}
	}
	// The scatter moved gradient ownership wholesale: the leader's
	// accumulators for follower-owned stages are empty.
	for st := 2; st < p; st++ {
		if lead.acc[st] != 0 {
			t.Fatalf("leader still holds %g gradient for scattered stage %d", lead.acc[st], st)
		}
	}
}

// TestComputeSuppressesCommit pins that a compute wrapper has no commit
// surface at all — an engine runs chains, and the one commit is the
// group's, on the leader — and that its framing is the leader's: the
// chunk's global microbatch base (the follower's chunk first), and the
// epoch phase pushed into the member.
func TestComputeSuppressesCommit(t *testing.T) {
	lead := &fakeLead{fakeMember: newFakeMember(2)}
	lead.followers = append(lead.followers, newFakeMember(2))
	g := lead.group(t)
	if _, err := g.Minibatch(context.Background(), [][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		var h engine.Host = g.Compute(r)
		for _, phase := range []string{"PrepareStage", "ClipScale", "StepStage"} {
			if _, ok := reflect.TypeOf(h).MethodByName(phase); ok {
				t.Fatalf("replica %d's compute wrapper exposes the commit phase %s", r, phase)
			}
		}
		if want := 1 - r; h.MicroBase() != want {
			t.Fatalf("replica %d's chunk starts at %d, want %d", r, h.MicroBase(), want)
		}
	}
	if got := lead.followers[0].asyncSet; got != 1 {
		t.Fatalf("follower was put in the leader's epoch phase %d times for one chunk, want 1", got)
	}
}

// blockingEngine wedges until its context is canceled — a stand-in for a
// replica whose compute hangs (a stalled worker, a stuck collective).
type blockingEngine struct{ entered chan struct{} }

func (blockingEngine) Name() string { return "blocking" }

func (b blockingEngine) Stream(ctx context.Context, h engine.Host, mbs [][][]int, _ engine.Commit) ([]float64, error) {
	close(b.entered)
	<-ctx.Done()
	return nil, ctx.Err()
}

// engineMember is an in-process follower that runs eng.
type engineMember struct {
	*fakeMember
	eng engine.Engine
}

func (m engineMember) Engine() engine.Engine { return m.eng }

// TestCancelUnwindsBlockedMemberWithoutDeadlock pins that when one
// replica's compute blocks mid-minibatch, canceling the context unwinds
// the whole minibatch — the blocked member returns, the fan-in completes,
// and neither the reduce's fold, the commit nor its gather runs — instead
// of deadlocking the followers.
func TestCancelUnwindsBlockedMemberWithoutDeadlock(t *testing.T) {
	lead := newFakeMember(2)
	blocking := blockingEngine{make(chan struct{})}
	follower := engineMember{newFakeMember(2), blocking}
	g := replica.NewGroup(lead, false)
	if err := g.Admit(follower); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := g.Minibatch(ctx, [][]int{{0}, {1}})
		done <- err
	}()
	select {
	case <-blocking.entered: // the follower is wedged mid-minibatch
	case <-time.After(5 * time.Second):
		t.Fatal("follower engine never started")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Minibatch error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Minibatch deadlocked after cancellation with a blocked member")
	}
	for name, m := range map[string]*fakeMember{"leader": lead, "follower": follower.fakeMember} {
		for st := range m.p {
			if m.prepared[st]+m.stepped[st] != 0 {
				t.Fatalf("%s ran commit phases after cancellation, want none", name)
			}
			if len(m.folds[st]) != 0 || m.imported[st] != 0 || m.rings != 0 {
				t.Fatalf("%s ran a fold, gather or handoff after cancellation, want none", name)
			}
		}
	}
}

// TestMembersShareOneEngine pins that an engine holds no run resources:
// the leader and an in-process follower drive their chunks through one
// concurrent engine value at once, minibatch after minibatch.
func TestMembersShareOneEngine(t *testing.T) {
	eng := concurrent.New(0)
	g := replica.NewGroup(engineMember{newFakeMember(2), eng}, false)
	if err := g.Admit(engineMember{newFakeMember(2), eng}); err != nil {
		t.Fatal(err)
	}
	for mb := 0; mb < 2; mb++ {
		if _, err := g.Minibatch(context.Background(), [][]int{{0}, {1}}); err != nil {
			t.Fatal(err)
		}
	}
}
