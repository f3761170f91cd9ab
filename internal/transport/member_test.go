package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/leakcheck"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// wireMember is a full fake replica.Local with one scalar parameter per
// stage, for exercising the member/server protocol without a trainer:
// forward returns a distinct loss per microbatch, backward accumulates
// s+1, state is a per-stage scalar.
type wireMember struct {
	p  int
	mu sync.Mutex

	acc   []float64
	state []*tensor.Tensor
	stall time.Duration // how long each chunk's first forward takes (a straggler)
	rings map[int]int   // stage → base + snapshot count of the ring last restored

	// verdict, when set, is BadLoss: a chunk diverges when it reports
	// true, and the worker answers it MsgErr when it panics.
	verdict func() bool

	prepared []int
	stepped  []int
	scales   []float64 // the clip scale of each StepStage, in call order
	imported []int
	handed   int // SetStageState calls: stages a handoff overwrote
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
func (m *wireMember) Engine() engine.Engine       { return engine.NewReference() }
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

func (m *wireMember) EndMicro(s int) {}

func (m *wireMember) BadLoss(loss float64) bool {
	m.mu.Lock()
	verdict := m.verdict
	m.mu.Unlock()
	return verdict != nil && verdict()
}

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

func (m *wireMember) ClipScale(sumSq float64) float64 { return 1 }

func (m *wireMember) StepStage(stage int, scale float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stepped[stage]++
	m.scales = append(m.scales, scale)
	m.state[stage].SetFlat(0, 1000+m.acc[stage])
}

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

func (m *wireMember) SetStageState(stage int, src []*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handed++
	m.state[stage].CopyFrom(src[0])
}

func (m *wireMember) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rings == nil {
		m.rings = map[int]int{}
	}
	m.rings[stage] = base + len(snaps)
}

var _ replica.Local = (*wireMember)(nil)

// startPair serves a wireMember over loopback under heartbeat hb (0: off)
// and returns the connected leader-side proxy plus the worker's member
// for inspection.
func startPair(t *testing.T, p int, hb time.Duration) (*RemoteMember, *wireMember, *wireMember, func()) {
	t.Helper()
	lis, dial := Loopback()
	worker := newWireMember(p)
	leader := newWireMember(p)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return worker, nil })
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: p, Heartbeat: hb})
	if err != nil {
		t.Fatalf("hello: %v", err)
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
	m, worker, leader, stop := startPair(t, p, 0)
	defer stop()

	// RunChunk: the worker drives the chunk through its Reference engine
	// and returns per-microbatch losses and per-(micro, stage) gradients.
	losses, grads, err := m.RunChunk(context.Background(), 4, true, false, [][]int{{0}, {1}})
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

	// Chunk 0 accumulates in place and ships one prefix per stage, which
	// leaves the worker's accumulators zero — after a divergence too.
	_, grads, err = m.RunChunk(context.Background(), 0, true, true, [][]int{{0}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != 1 || grads[0][p-1][0].FlatAt(0) != 1+2+3 {
		t.Fatalf("chunk 0 shipped %d rows, want one prefix of 6", len(grads))
	}
	calls := 0
	worker.mu.Lock()
	worker.verdict = func() bool { calls++; return calls == 2 } // after microbatch 0's backward
	worker.mu.Unlock()
	if _, _, err := m.RunChunk(context.Background(), 0, true, true, [][]int{{0}, {1}}); !errors.Is(err, engine.ErrDiverged) {
		t.Fatalf("diverged chunk 0 returned %v, want engine.ErrDiverged", err)
	}
	worker.mu.Lock()
	worker.verdict = nil
	for st, a := range worker.acc {
		if a != 0 {
			t.Fatalf("stage %d accumulator holds %g after chunk 0 ended, want 0", st, a)
		}
	}
	worker.mu.Unlock()

	// Scatter → prepare → step → gather, as the sharded commit would.
	g := tensor.New(1)
	g.SetFlat(0, 42)
	m.SetStageGrads(1, []*tensor.Tensor{g})
	if got := m.PrepareStage(1, 8); got != 2*8 {
		t.Fatalf("PrepareStage partial %g, want 16", got)
	}
	m.StepStage(1, 0.5)
	st := m.StageState(1)
	if len(st) != 1 || st[0].FlatAt(0) != 1000+42 {
		t.Fatalf("StageState %v, want [1042]", st)
	}
	worker.mu.Lock()
	if len(worker.scales) != 1 || worker.scales[0] != 0.5 {
		t.Fatalf("worker stepped with scales %v, want [0.5]", worker.scales)
	}
	worker.mu.Unlock()
	src := tensor.New(1)
	src.SetFlat(0, -5)
	m.ImportStageState(2, []*tensor.Tensor{src})
	worker.mu.Lock()
	if worker.state[2].FlatAt(0) != -5 || worker.imported[2] != 1 {
		t.Fatalf("import did not land: state %g, imports %d", worker.state[2].FlatAt(0), worker.imported[2])
	}
	worker.mu.Unlock()

	// The full leader-state push, as replica.Group makes it: every
	// stage's state, then every stage's ring.
	for s := 0; s < p; s++ {
		m.SetStageState(s, leader.StageState(s))
	}
	snap := []*tensor.Tensor{tensor.New(1)}
	for s := 0; s < p; s++ {
		m.RestoreVersions(s, 5+s, [][]*tensor.Tensor{snap, snap})
	}
	worker.mu.Lock()
	if worker.handed != p || worker.imported[0] != 0 {
		t.Fatalf("the handoff overwrote %d stages and imported stage 0 %d times, want %d and 0", worker.handed, worker.imported[0], p)
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

// TestHandshakeRejectsStageMismatch: a worker whose builder cannot take
// the leader's stages — core.NewFollower refuses a stage map that does not
// fit its task — answers the hello with its reason, and the leader's
// handshake fails with it.
func TestHandshakeRejectsStageMismatch(t *testing.T) {
	lis, dial := Loopback()
	defer lis.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go Serve(ctx, lis, func(spec Spec) (replica.Local, error) {
		return nil, fmt.Errorf("%d stages announced for a 3-stage model", spec.Stages)
	})
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: 2}); err == nil ||
		!strings.Contains(err.Error(), "2 stages announced for a 3-stage model") {
		t.Fatalf("hello err = %v, want the worker's stage refusal", err)
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
		// A worker that answers the hello, then goes silent.
		conn, err := lis.Accept(ctx)
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(ctx); err != nil {
			return
		}
		conn.Send(ctx, Msg{Type: MsgHelloOK, Stage: -1})
		for { // never reply again; m.Close ends the read
			if _, err := conn.Recv(ctx); err != nil {
				return
			}
		}
	}()
	conn, err := NewTCPDialer(lis.Addr()).Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: 2})
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
	m, err := NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, _, err := m.RunChunk(cctx, 0, true, false, [][]int{{0}}); err == nil {
		t.Fatal("RunChunk succeeded against a dead worker")
	} else if errors.Is(err, engine.ErrDiverged) {
		t.Fatal("a dead worker must not read as divergence")
	}
	if m.Err() == nil {
		t.Fatal("member did not latch the transport error")
	}
}

// TestChunkReplyOutcomes pins RunChunk's one reply wait on both of its
// branches — the plain read without a heartbeat, and the heartbeat's
// windows under the straggler policy with the reply inside the first —
// against each reply a worker gives a
// chunk: its results, a divergence, or an error. A divergence passes
// through without poisoning the member, and the next chunk is served; an
// error latches, naming the replica. Every answered chunk is exactly one
// wire:chunk span whose bytes are the request's payload plus the reply's.
func TestChunkReplyOutcomes(t *testing.T) {
	micros := [][]int{{0}, {1}}
	const request = 4 + 1 + 1 + 4 + 2*(4+4) // base, phase, chunk-0 flag, count, two one-sample microbatches
	one := []*tensor.Tensor{tensor.New(1)}
	// Two losses, the gradient-set shape, and one scalar per (microbatch, stage).
	done := Msg{Data: make([]byte, 4+2*8+4+4), Lists: [][]*tensor.Tensor{one, one, one, one}}.PayloadLen()
	for _, armed := range []bool{false, true} {
		for _, reply := range []string{"done", "diverged", "worker error"} {
			t.Run(fmt.Sprintf("armed=%t/%s", armed, reply), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				var hb time.Duration
				if armed {
					hb = 5 * time.Second
				}
				m, worker, _, stop := startPair(t, 2, hb)
				rec := trace.New()
				m.SetTracer(rec)
				m.SetID(3)
				if armed {
					m.SetStragglerMisses(1)
				}
				var want []int64 // the bytes of each answered chunk's span
				switch reply {
				case "done":
					if _, _, err := m.RunChunk(ctx, 0, true, false, micros); err != nil {
						t.Fatal(err)
					}
					want = []int64{request + int64(done)}
				case "diverged":
					worker.mu.Lock()
					worker.verdict = func() bool { return true }
					worker.mu.Unlock()
					if _, _, err := m.RunChunk(ctx, 0, true, false, micros); !errors.Is(err, engine.ErrDiverged) {
						t.Fatalf("diverged chunk returned %v, want engine.ErrDiverged", err)
					}
					if err := m.Err(); err != nil {
						t.Fatalf("a divergence poisoned the member: %v", err)
					}
					worker.mu.Lock()
					worker.verdict = nil
					worker.mu.Unlock()
					if losses, _, err := m.RunChunk(ctx, 2, true, false, micros); err != nil || len(losses) != 2 || losses[1] != 103 {
						t.Fatalf("chunk after the divergence: losses %v, err %v", losses, err)
					}
					want = []int64{request + 4, request + int64(done)}
				case "worker error":
					worker.mu.Lock()
					worker.verdict = func() bool { panic("member broke") }
					worker.mu.Unlock()
					_, _, err := m.RunChunk(ctx, 0, true, false, micros)
					if err == nil || errors.Is(err, engine.ErrDiverged) || !strings.Contains(err.Error(), "replica 3") ||
						!strings.Contains(err.Error(), "member broke") {
						t.Fatalf("failed chunk returned %v, want a worker error naming replica 3", err)
					}
					if m.Err() != err {
						t.Fatalf("member latched %v, want the chunk's error", m.Err())
					}
					_, text, _ := strings.Cut(err.Error(), "worker: ")
					want = []int64{request + 4 + int64(len(text))}
				}
				var got []int64
				for _, tk := range rec.Tracks() {
					for _, ev := range tk.Events() {
						if tk.Tid == trace.TidWire && ev.Name == "wire:chunk" {
							got = append(got, ev.Bytes)
						}
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("wire:chunk span bytes %v, want %v", got, want)
				}
				if reply != "worker error" {
					stop()
					return
				}
				// The worker ended its session with the error reply, which
				// stop would report: close the proxy alone.
				m.Close()
			})
		}
	}
}

// TestOneWindowRule pins the heartbeat as the one window of a chunk's
// reply wait, with the straggler policy armed (two windows) or not,
// against a scripted worker that replies inside the first window, pings
// through twelve windows before it replies, or goes silent. A first-window
// reply resets the miss count. A late but pinging worker is demoted after
// two windows, unlatched, and its drain ends ready; unarmed, its reply is
// simply late. A silent worker is latched with ErrPeerTimeout after ten
// windows: in the wait, or — demoted first — in the drain.
func TestOneWindowRule(t *testing.T) {
	const hb, k = 20 * time.Millisecond, 2
	const late = (heartbeatMisses + 2) * hb // past the hang rule, kept alive by pings
	// One microbatch's loss and one stage's gradient: chunk {{0}} of a
	// one-stage member.
	reply := Msg{Type: MsgChunkDone, Stage: -1, Data: AppendU32(AppendU32(AppendF64(AppendU32(nil, 1), 7), 1), 1),
		Lists: [][]*tensor.Tensor{{tensor.New(1)}}}
	workers := map[string]func(ctx context.Context, conn MsgConn){
		"first window": func(ctx context.Context, conn MsgConn) { conn.Send(ctx, reply) },
		"late, pinging": func(ctx context.Context, conn MsgConn) {
			for end := time.Now().Add(late); time.Now().Before(end); time.Sleep(hb / 4) {
				conn.Send(ctx, Msg{Type: MsgPing, Stage: -1})
			}
			conn.Send(ctx, reply)
		},
		"silent": func(context.Context, MsgConn) {},
	}
	for _, armed := range []bool{false, true} {
		for _, name := range []string{"first window", "late, pinging", "silent"} {
			t.Run(fmt.Sprintf("armed=%t/%s", armed, name), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				lis, dial := Loopback()
				defer lis.Close()
				served := make(chan struct{})
				go func() {
					defer close(served)
					conn, err := lis.Accept(ctx)
					if err != nil {
						return
					}
					defer conn.Close()
					for i := 0; ; i++ {
						if _, err := conn.Recv(ctx); err != nil {
							return
						}
						switch i {
						case 0:
							conn.Send(ctx, Msg{Type: MsgHelloOK, Stage: -1})
						case 1:
							workers[name](ctx, conn)
						}
					}
				}()
				conn, err := dial.Dial(ctx)
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: 1, Heartbeat: hb})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { m.Close(); <-served }()
				if armed {
					m.SetStragglerMisses(k)
				}
				if name == "first window" {
					m.misses = 1 // a straggle of an earlier chunk
				}
				start := time.Now()
				_, _, err = m.RunChunk(ctx, 0, true, false, [][]int{{0}})
				waited := time.Since(start)
				switch {
				case name == "first window":
					if err != nil {
						t.Fatal(err)
					}
					if want := map[bool]int{false: 1, true: 0}[armed]; m.misses != want {
						t.Fatalf("miss count %d after a first-window reply, want %d", m.misses, want)
					}
				case !armed && name == "late, pinging":
					if err != nil || waited < late {
						t.Fatalf("late reply after %v: %v, want it, undemoted, after %v", waited, err, late)
					}
				case !armed:
					if !errors.Is(err, ErrPeerTimeout) || m.Err() != err || waited < heartbeatMisses*hb {
						t.Fatalf("silent worker after %v: %v (latched %v), want a latched ErrPeerTimeout after %v", waited, err, m.Err(), heartbeatMisses*hb)
					}
				default:
					if !errors.Is(err, replica.ErrStraggler) || m.Err() != nil || waited < k*hb {
						t.Fatalf("straggle after %v: %v (latched %v), want an unlatched ErrStraggler after %v", waited, err, m.Err(), k*hb)
					}
					ready := m.Rearm()
					for ; !ready && m.Err() == nil; ready = m.Rearm() {
						if ctx.Err() != nil {
							t.Fatal("the drain did not end")
						}
						time.Sleep(time.Millisecond)
					}
					drained := time.Since(start)
					if name == "silent" {
						if ready || !errors.Is(m.Err(), ErrPeerTimeout) || drained < heartbeatMisses*hb {
							t.Fatalf("silent worker's drain after %v: ready %t, latched %v; want ErrPeerTimeout after %v", drained, ready, m.Err(), heartbeatMisses*hb)
						}
					} else if !ready || m.Err() != nil {
						t.Fatalf("late worker's drain: ready %t, latched %v; want ready", ready, m.Err())
					}
				}
			})
		}
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
		serveDone <- Serve(ctx, lis, func(spec Spec) (replica.Local, error) { return newWireMember(2), nil })
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spec := Spec{Replica: 1, Replicas: 2, Stages: 2}
	if err := conn.Send(ctx, Msg{Type: MsgHello, Replica: 1, Stage: -1, Data: spec.encode()}); err != nil {
		t.Fatal(err)
	}
	if resp, err := conn.Recv(ctx); err != nil || resp.Type != MsgHelloOK {
		t.Fatalf("hello: %v / type %d", err, resp.Type)
	}
	// A stage index far out of range panics the member; the guard must
	// turn it into MsgErr.
	if err := conn.Send(ctx, Msg{Type: MsgStep, Replica: 1, Stage: 99, Data: AppendF64(nil, 1)}); err != nil {
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
