package replica_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// fakeMember is a minimal in-process replica with one scalar "parameter"
// per stage. StageBackward "accumulates" the gradient s+1 for microbatch s, so
// exported buffers carry the global microbatch identity, and the leader's
// FoldStageGrads records the sequence of values it receives — making the
// fold ORDER directly observable, the property the tree reduction must
// preserve.
type fakeMember struct {
	p      int
	mu     sync.Mutex
	acc    []float64 // per-stage accumulator
	synced int       // SetStep calls: one per full-state push from the leader
	folds  [][]float64

	// Sharded-commit recording: per-stage commit-phase call counts and
	// per-stage "state" scalars for the scatter/gather assertions.
	state      []float64 // per-stage post-step state (stepped by owner, imported elsewhere)
	prepared   []int
	stepped    []int
	finished   []int
	imported   []int
	beginSteps int
	epochSyncs int // SetEpoch calls
	asyncSet   int // SetAsync calls
	rings      int // RestoreVersions calls
}

func newFakeMember(p int) *fakeMember {
	return &fakeMember{p: p, acc: make([]float64, p), folds: make([][]float64, p),
		state: make([]float64, p), prepared: make([]int, p), stepped: make([]int, p),
		finished: make([]int, p), imported: make([]int, p)}
}

func (f *fakeMember) Stages() int                 { return f.p }
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

func (f *fakeMember) PrepareStage(stage, nMicro int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prepared[stage]++
	return float64(stage + 1) // distinct partials: checks the stage-ordered fold
}

func (f *fakeMember) ClipScale(sumSq float64) float64     { return 1 }
func (f *fakeMember) ScaleStage(stage int, scale float64) {}

func (f *fakeMember) BeginStep() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.beginSteps++
}

// StepStage "steps" the stage by publishing the reduced gradient the owner
// holds into its state scalar, so the gather assertions can check that
// non-owners receive exactly the owner's post-step value.
func (f *fakeMember) StepStage(stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stepped[stage]++
	f.state[stage] = 1000 + f.acc[stage]
}

func (f *fakeMember) FinishStage(stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finished[stage]++
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

func (f *fakeMember) SetEpoch(int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epochSyncs++
}

func (f *fakeMember) SetStep(int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synced++
}

func (f *fakeMember) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rings++
}

// A fakeMember can lead a group: its clocks read zero.
func (f *fakeMember) Group() *replica.Group { return nil }
func (f *fakeMember) Step() int             { return 0 }
func (f *fakeMember) Epoch() int            { return 0 }

var _ replica.Leader = (*fakeMember)(nil)

// fakeLead is a leader fakeMember and the in-process followers its group
// is built over.
type fakeLead struct {
	*fakeMember
	followers []*fakeMember
	sharded   bool
}

// group builds the replica group over the leader and its followers.
func (f *fakeLead) group(t *testing.T) *replica.Group {
	t.Helper()
	var ms []replica.Member
	for _, m := range f.followers {
		ms = append(ms, m)
	}
	g, err := replica.NewGroup(f.fakeMember, ms, f.sharded, false)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// driveChunk simulates an inner engine running replica r's chunk through
// its compute wrapper: a forward climb and a backward descent per
// microbatch, in chain order.
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
// bit-identical claim rests on: the leader's own chunk is the untouched
// fold prefix, and the tree reduction hands the leader every follower
// microbatch's gradient exactly once, in global microbatch order.
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
	chunks := g.Begin(context.Background(), micros)
	wantSizes := []int{3, 3, 2, 2}
	start := 0
	for i, want := range wantSizes {
		if len(chunks[i]) != want {
			t.Fatalf("chunk %d has %d microbatches, want %d", i, len(chunks[i]), want)
		}
		if base := g.Compute(i).MicroBase(); base != start {
			t.Fatalf("replica %d starts at global microbatch %d, want %d", i, base, start)
		}
		start += want
	}

	for i := 0; i < r; i++ {
		driveChunk(g.Compute(i), chunks[i], p)
	}
	g.Reduce()

	// The leader's direct accumulation holds exactly its own chunk's fold.
	wantLead := 1.0 + 2 + 3 // s = 0,1,2 → s+1
	for st := 0; st < p; st++ {
		if lead.acc[st] != wantLead {
			t.Fatalf("leader stage %d accumulated %g, want its chunk prefix %g", st, lead.acc[st], wantLead)
		}
	}
	// Every stage received the follower microbatches in global order.
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
	if got := g.LossSum(); got != wantLoss {
		t.Fatalf("loss sum %g, want %g", got, wantLoss)
	}

	g.Broadcast()
	if lead.synced != 0 {
		t.Fatal("the leader must not sync from itself")
	}
	for i, f := range lead.followers {
		if f.synced != 1 {
			t.Fatalf("follower %d synced %d times, want 1", i+1, f.synced)
		}
	}
}

// TestGroupShardedCommitProtocol drives the replica-sharded commit over
// fake members with an uneven stage count (P=5 across R=3: shards of 2, 2
// and 1 stages) and checks the ownership contract the determinism claim
// rests on: every stage is prepared/stepped/finished exactly once, at its
// owner; the leader's reduced gradient reaches the owner by pure copy
// (and leaves the leader's accumulator empty); every member advances its
// step clock exactly once; every non-owner imports exactly the owner's
// post-step state; and no full-state broadcast runs.
func TestGroupShardedCommitProtocol(t *testing.T) {
	const p, r = 5, 3
	lead := &fakeLead{fakeMember: newFakeMember(p), sharded: true}
	for i := 1; i < r; i++ {
		lead.followers = append(lead.followers, newFakeMember(p))
	}
	g := lead.group(t)
	// Stand in for Reduce: the leader holds the fully reduced minibatch
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
				if m.prepared[st] != 1 || m.stepped[st] != 1 || m.finished[st] != 1 {
					t.Fatalf("owner %d of stage %d ran prepare/step/finish %d/%d/%d times, want 1/1/1",
						i, st, m.prepared[st], m.stepped[st], m.finished[st])
				}
				if m.imported[st] != 0 {
					t.Fatalf("owner %d imported its own stage %d", i, st)
				}
			} else {
				if m.prepared[st] != 0 || m.stepped[st] != 0 || m.finished[st] != 0 {
					t.Fatalf("non-owner %d of stage %d ran commit phases %d/%d/%d times, want none",
						i, st, m.prepared[st], m.stepped[st], m.finished[st])
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
		if m.beginSteps != 1 {
			t.Fatalf("member %d advanced its step clock %d times, want exactly 1", i, m.beginSteps)
		}
		if m.synced != 0 {
			t.Fatalf("member %d received the full-state broadcast under the sharded commit", i)
		}
	}
	for i, m := range lead.followers {
		if m.epochSyncs != 1 {
			t.Fatalf("follower %d synced its epoch clock %d times, want 1", i+1, m.epochSyncs)
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

// TestGroupSerialCommitBroadcasts pins the non-sharded path: the whole
// commit runs on the leader and every follower receives the full-state
// broadcast: each stage imported once, then the step clock set once.
func TestGroupSerialCommitBroadcasts(t *testing.T) {
	const p, r = 3, 2
	lead := &fakeLead{fakeMember: newFakeMember(p)}
	lead.followers = append(lead.followers, newFakeMember(p))
	g := lead.group(t)
	if err := g.Commit(2); err != nil {
		t.Fatal(err)
	}
	for st := 0; st < p; st++ {
		if lead.prepared[st] != 1 || lead.stepped[st] != 1 || lead.finished[st] != 1 {
			t.Fatalf("leader stage %d prepare/step/finish = %d/%d/%d, want 1/1/1",
				st, lead.prepared[st], lead.stepped[st], lead.finished[st])
		}
	}
	if lead.beginSteps != 1 {
		t.Fatalf("leader advanced its step clock %d times, want 1", lead.beginSteps)
	}
	f := lead.followers[0]
	if f.synced != 1 {
		t.Fatalf("follower synced %d times, want the full broadcast once", f.synced)
	}
	for st := 0; st < p; st++ {
		if f.imported[st] != 1 || f.state[st] != lead.state[st] {
			t.Fatalf("follower imported stage %d %d times (state %g), want the leader's %g once", st, f.imported[st], f.state[st], lead.state[st])
		}
	}
	if f.epochSyncs != 0 || f.rings != 0 {
		t.Fatalf("the per-step broadcast pushed %d epoch clocks and %d rings, want neither", f.epochSyncs, f.rings)
	}
	if f.beginSteps != 0 || f.prepared[0] != 0 {
		t.Fatal("follower must stay inert under the leader-serial commit")
	}
}

// TestComputeSuppressesCommit pins that a compute wrapper has no commit
// surface at all — an inner engine runs chains, and the one commit is the
// group's, on the leader — and that its framing is the leader's: the
// chunk's global microbatch base, and the epoch phase pushed into the
// member.
func TestComputeSuppressesCommit(t *testing.T) {
	lead := &fakeLead{fakeMember: newFakeMember(2)}
	lead.followers = append(lead.followers, newFakeMember(2))
	g := lead.group(t)
	g.Begin(context.Background(), [][]int{{0}, {1}})
	for r := 0; r < 2; r++ {
		var h engine.Host = g.Compute(r)
		if _, ok := h.(engine.Committer); ok {
			t.Fatalf("replica %d's compute wrapper exposes the commit phases", r)
		}
		if h.MicroBase() != r {
			t.Fatalf("replica %d's chunk starts at %d, want %d", r, h.MicroBase(), r)
		}
	}
	if got := lead.followers[0].asyncSet; got != 1 {
		t.Fatalf("follower was put in the leader's epoch phase %d times for one chunk, want 1", got)
	}
}
