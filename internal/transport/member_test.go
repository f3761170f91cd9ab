package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// wireMember is a full fake replica.Local with one scalar parameter per
// stage, for exercising the member/server protocol without a trainer:
// forward returns a distinct loss per microbatch, backward accumulates
// s+1, state is a per-stage scalar.
type wireMember struct {
	p  int
	mu sync.Mutex

	acc   []float64
	state []*tensor.Tensor
	step  int
	epoch int
	stall time.Duration // how long each chunk's first forward takes (a straggler)
	rings map[int]int   // stage → base + snapshot count of the ring last restored

	prepared []int
	stepped  []int
	imported []int
}

func newWireMember(p int) *wireMember {
	m := &wireMember{p: p, acc: make([]float64, p), state: make([]*tensor.Tensor, p),
		prepared: make([]int, p), stepped: make([]int, p), imported: make([]int, p)}
	for st := range m.state {
		m.state[st] = tensor.New(1)
		m.state[st].SetFlat(0, float64(100*st))
	}
	return m
}

func (m *wireMember) Stages() int                 { return m.p }
func (m *wireMember) Recompute() bool             { return false }
func (m *wireMember) MicroBase() int              { return 0 }
func (m *wireMember) SetAsync(async bool)         {}
func (m *wireMember) StageRecompute(s, stage int) {}
func (m *wireMember) Restore(stage int)           {}
func (m *wireMember) BeginMicro(s int, mb []int)  {}
func (m *wireMember) StageForward(s, stage int) float64 {
	if s == 0 && stage == 0 {
		m.mu.Lock()
		stall := m.stall
		m.mu.Unlock()
		time.Sleep(stall)
	}
	if stage == m.p-1 {
		return float64(100 + s)
	}
	return 0
}

func (m *wireMember) StageBackward(s, stage int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acc[stage] += float64(s + 1)
}

func (m *wireMember) EndMicro(s int)            {}
func (m *wireMember) BadLoss(loss float64) bool { return false }

func (m *wireMember) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bufs == nil {
		bufs = []*tensor.Tensor{tensor.New(1)}
	}
	bufs[0].SetFlat(0, m.acc[stage])
	m.acc[stage] = 0
	return bufs
}

func (m *wireMember) FoldStageGrads(stage int, bufs []*tensor.Tensor) {}

func (m *wireMember) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acc[stage] = bufs[0].FlatAt(0)
}

func (m *wireMember) PrepareStage(stage, nMicro int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prepared[stage]++
	return float64(stage+1) * float64(nMicro)
}

func (m *wireMember) ClipScale(sumSq float64) float64     { return 1 }
func (m *wireMember) ScaleStage(stage int, scale float64) {}
func (m *wireMember) BeginStep()                          {}

func (m *wireMember) StepStage(stage int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stepped[stage]++
	m.state[stage].SetFlat(0, 1000+m.acc[stage])
}

func (m *wireMember) FinishStage(stage int) {}

func (m *wireMember) StageState(stage int) []*tensor.Tensor {
	m.mu.Lock()
	defer m.mu.Unlock()
	return []*tensor.Tensor{m.state[stage].Clone()}
}

func (m *wireMember) ImportStageState(stage int, src []*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.imported[stage]++
	m.state[stage].CopyFrom(src[0])
}

func (m *wireMember) SetStep(step int)   { m.mu.Lock(); m.step = step; m.mu.Unlock() }
func (m *wireMember) SetEpoch(epoch int) { m.mu.Lock(); m.epoch = epoch; m.mu.Unlock() }

func (m *wireMember) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rings == nil {
		m.rings = map[int]int{}
	}
	m.rings[stage] = base + len(snaps)
}

var _ replica.Local = (*wireMember)(nil)

// startPair serves a wireMember over loopback and returns the connected
// leader-side proxy plus the worker's member for inspection.
func startPair(t *testing.T, p int) (*RemoteMember, *wireMember, *wireMember, func()) {
	t.Helper()
	lis, dial := Loopback()
	worker := newWireMember(p)
	leader := newWireMember(p)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return worker, nil }, nil)
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Replica: 1, Replicas: 2, Stages: p, Step: 7, Epoch: 3,
		Checksum: StateChecksum(leader, p)}
	m, err := NewRemoteMember(ctx, conn, spec)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	stop := func() {
		m.Close()
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
		cancel()
		lis.Close()
	}
	return m, worker, leader, stop
}

// TestRemoteMemberProtocol drives every collective of the member surface
// over the loopback wire and checks it lands on the worker's member with
// the same arguments and results as a direct call.
func TestRemoteMemberProtocol(t *testing.T) {
	const p = 3
	m, worker, leader, stop := startPair(t, p)
	defer stop()

	// Handshake applied the leader's clocks.
	worker.mu.Lock()
	if worker.step != 7 || worker.epoch != 3 {
		t.Fatalf("worker clocks %d/%d after handshake, want 7/3", worker.step, worker.epoch)
	}
	worker.mu.Unlock()

	// RunChunk: the worker drives the chunk through its Reference engine
	// and returns per-microbatch losses and per-(micro, stage) gradients.
	losses, grads, err := m.RunChunk(context.Background(), 4, true, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 2 || losses[0] != 104 || losses[1] != 105 {
		t.Fatalf("losses %v, want [104 105]", losses)
	}
	for k := 0; k < 2; k++ {
		for st := 0; st < p; st++ {
			if got := grads[k][st][0].FlatAt(0); got != float64(4+k+1) {
				t.Fatalf("grads[%d][%d] = %g, want %g", k, st, got, float64(4+k+1))
			}
		}
	}

	// Scatter → prepare → step → gather, as the sharded commit would.
	g := tensor.New(1)
	g.SetFlat(0, 42)
	m.SetStageGrads(1, []*tensor.Tensor{g})
	if got := m.PrepareStage(1, 8); got != 2*8 {
		t.Fatalf("PrepareStage partial %g, want 16", got)
	}
	m.BeginStep()
	m.ScaleStage(1, 0.5)
	m.StepStage(1)
	m.FinishStage(1)
	st := m.StageState(1)
	if len(st) != 1 || st[0].FlatAt(0) != 1000+42 {
		t.Fatalf("StageState %v, want [1042]", st)
	}
	src := tensor.New(1)
	src.SetFlat(0, -5)
	m.ImportStageState(2, []*tensor.Tensor{src})
	worker.mu.Lock()
	if worker.state[2].FlatAt(0) != -5 || worker.imported[2] != 1 {
		t.Fatalf("import did not land: state %g, imports %d", worker.state[2].FlatAt(0), worker.imported[2])
	}
	worker.mu.Unlock()

	// The full leader-state push, as replica.Group makes it: the epoch
	// clock, every stage's state, the step clock, every stage's ring.
	m.SetEpoch(4)
	for s := 0; s < p; s++ {
		m.ImportStageState(s, leader.StageState(s))
	}
	m.SetStep(9)
	snap := []*tensor.Tensor{tensor.New(1)}
	for s := 0; s < p; s++ {
		m.RestoreVersions(s, 5+s, [][]*tensor.Tensor{snap, snap})
	}
	worker.mu.Lock()
	if worker.epoch != 4 {
		t.Fatalf("worker epoch %d after SetEpoch, want 4", worker.epoch)
	}
	if worker.step != 9 {
		t.Fatalf("worker step %d after the push, want the leader's 9", worker.step)
	}
	for s := 0; s < p; s++ {
		if worker.state[s].FlatAt(0) != float64(100*s) {
			t.Fatalf("pushed stage %d state %g, want the leader's %d", s, worker.state[s].FlatAt(0), 100*s)
		}
		if worker.rings[s] != 5+s+2 {
			t.Fatalf("stage %d ring ends at version %d, want base %d + 2 snapshots", s, worker.rings[s], 5+s)
		}
	}
	worker.mu.Unlock()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestHandshakeRejectsMismatchedState pins the integrity check: a worker
// whose rebuilt follower hashes differently (wrong seed, task or
// partition) fails the handshake with a descriptive error instead of
// silently diverging the curves.
func TestHandshakeRejectsMismatchedState(t *testing.T) {
	const p = 2
	lis, dial := Loopback()
	defer lis.Close()
	worker := newWireMember(p)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return worker, nil }, nil)
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	leader := newWireMember(p)
	spec := Spec{Replica: 1, Replicas: 2, Stages: p,
		Checksum: StateChecksum(leader, p) + 1} // poisoned
	if _, err := NewRemoteMember(ctx, conn, spec); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("handshake err = %v, want a checksum mismatch", err)
	}
}

// TestHandshakeRejectsStageMismatch: a worker that resolves a different
// stage count must be refused.
func TestHandshakeRejectsStageMismatch(t *testing.T) {
	lis, dial := Loopback()
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return newWireMember(3), nil }, nil)
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	leader := newWireMember(2)
	spec := Spec{Replica: 1, Replicas: 2, Stages: 2,
		Checksum: StateChecksum(leader, 2)}
	if _, err := NewRemoteMember(ctx, conn, spec); err == nil ||
		!strings.Contains(err.Error(), "stages") {
		t.Fatalf("handshake err = %v, want a stage mismatch", err)
	}
}

// TestCancelMidCollectiveUnwinds pins satellite liveness over real TCP:
// a collective blocked on a worker that never replies unwinds when the
// bound context cancels — no deadlock — and the member latches the error
// for replica.Group to surface.
func TestCancelMidCollectiveUnwinds(t *testing.T) {
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	ctx := context.Background()
	go func() {
		// A worker that completes the handshake, then goes silent.
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(ctx); err != nil {
			return
		}
		conn.Send(ctx, Msg{Type: MsgHelloOK, Stage: -1})
		select {} // never reply again (goroutine dies with the process)
	}()
	conn, err := NewTCPDialer(lis.Addr()).Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	leader := newWireMember(2)
	spec := Spec{Replica: 1, Replicas: 2, Stages: 2,
		Checksum: StateChecksum(leader, 2)}
	m, err := NewRemoteMember(ctx, conn, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	mctx, cancel := context.WithCancel(context.Background())
	m.BindContext(mctx)
	done := make(chan float64, 1)
	go func() { done <- m.PrepareStage(0, 4) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case v := <-done:
		if v != 0 {
			t.Fatalf("canceled PrepareStage returned %g, want 0", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PrepareStage deadlocked after cancel")
	}
	if err := m.Err(); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("member error %v, want a latched context.Canceled", err)
	}
	// Poisoned member fails fast instead of touching the dead wire.
	if v := m.PrepareStage(1, 4); v != 0 {
		t.Fatalf("poisoned PrepareStage returned %g, want 0", v)
	}
}

// TestWorkerDeathMidChunkIsAnError pins satellite error surfacing: a
// worker whose connection drops mid-minibatch produces a transport error
// from RunChunk (not a hang, not a panic), and the member stays poisoned.
func TestWorkerDeathMidChunkIsAnError(t *testing.T) {
	lis, dial := Loopback()
	defer lis.Close()
	ctx := context.Background()
	go func() {
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		if _, err := conn.Recv(ctx); err != nil {
			return
		}
		conn.Send(ctx, Msg{Type: MsgHelloOK, Stage: -1})
		conn.Recv(ctx) // the chunk request...
		conn.Close()   // ...and the worker dies
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	leader := newWireMember(2)
	spec := Spec{Replica: 1, Replicas: 2, Stages: 2,
		Checksum: StateChecksum(leader, 2)}
	m, err := NewRemoteMember(ctx, conn, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := m.RunChunk(cctx, 0, true, [][]int{{0}}); err == nil {
		t.Fatal("RunChunk succeeded against a dead worker")
	} else if errors.Is(err, engine.ErrDiverged) {
		t.Fatal("a dead worker must not read as divergence")
	}
	if m.Err() == nil {
		t.Fatal("member did not latch the transport error")
	}
}

// TestServerSurvivesMalformedRequests pins the worker-side panic guard: a
// garbage payload becomes an error reply, not a worker crash, and the
// serve loop exits cleanly rather than processing further requests.
func TestServerSurvivesMalformedRequests(t *testing.T) {
	lis, dial := Loopback()
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return newWireMember(2), nil }, nil)
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	leader := newWireMember(2)
	spec := Spec{Replica: 1, Replicas: 2, Stages: 2,
		Checksum: StateChecksum(leader, 2)}
	if err := conn.Send(ctx, Msg{Type: MsgHello, Replica: 1, Stage: -1, Data: spec.encode()}); err != nil {
		t.Fatal(err)
	}
	if resp, err := conn.Recv(ctx); err != nil || resp.Type != MsgHelloOK {
		t.Fatalf("handshake: %v / type %d", err, resp.Type)
	}
	// A stage index far out of range panics the member; the guard must
	// turn it into MsgErr.
	if err := conn.Send(ctx, Msg{Type: MsgStep, Replica: 1, Stage: 99}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv(ctx)
	if err != nil || resp.Type != MsgErr {
		t.Fatalf("reply to malformed request: %v / type %d, want MsgErr", err, resp.Type)
	}
	if err := <-serveDone; err == nil {
		t.Fatal("serve loop ignored a fatal request error")
	}
}
