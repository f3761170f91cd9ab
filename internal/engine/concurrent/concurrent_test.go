package concurrent

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipemare/internal/leakcheck"
)

// stubHost is the minimal Host needed to start workers.
type stubHost struct{ p int }

func (s *stubHost) Stages() int                   { return s.p }
func (s *stubHost) Recompute() bool               { return false }
func (s *stubHost) MicroBase() int                { return 0 }
func (s *stubHost) Restore(int)                   {}
func (s *stubHost) BeginMicro(int, []int)         {}
func (s *stubHost) StageForward(_, _ int) float64 { return 0 }
func (s *stubHost) StageRecompute(_, _ int)       {}
func (s *stubHost) StageBackward(_, _ int)        {}
func (s *stubHost) EndMicro(int)                  {}
func (s *stubHost) BadLoss(float64) bool          { return false }

// TestStreamJoinsItsWorkers pins that an engine holds no run resources:
// each Stream starts its own workers and joins them before it returns.
func TestStreamJoinsItsWorkers(t *testing.T) {
	e := New(2)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		if _, err := e.Stream(context.Background(), &stubHost{p: 3}, [][][]int{{{0}, {1}}}, nil); err != nil {
			t.Fatal(err)
		}
		// wg.Done runs before its goroutine exits: settle briefly.
		if n := leakcheck.Settled(baseline, time.Second); n > baseline {
			t.Fatalf("stream %d: %d goroutines outlive the stream", i, n-baseline)
		}
	}
}

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestOptionsAndName(t *testing.T) {
	if New(0).Name() != "concurrent" {
		t.Fatal("engine name wrong")
	}
}

// TestWithWorkersOption pins how New resolves its worker count: negative
// clamps to auto, and auto or W > P resolve per Stream in workersFor.
func TestWithWorkersOption(t *testing.T) {
	if e := New(3); e.workers != 3 {
		t.Fatalf("workers = %d, want 3", e.workers)
	}
	if e := New(-2); e.workers != 0 {
		t.Fatalf("New(-2) must clamp to auto, got %d", e.workers)
	}
	// Auto resolves to min(P, GOMAXPROCS); explicit W > P clamps to P.
	if n := New(64).workersFor(3); n != 3 {
		t.Fatalf("workersFor(3) = %d with W=64, want 3", n)
	}
	if n, want := New(0).workersFor(16), min(16, runtime.GOMAXPROCS(0)); n != want {
		t.Fatalf("auto workersFor(16) = %d, want min(P, GOMAXPROCS) = %d", n, want)
	}
}

// TestSegmentCut pins the serialization domains a Stream builds: S =
// min(P, segmentsPerWorker·W) segments of consecutive stages that are
// non-empty, within one stage of each other in size, and cover [0, P) in
// order.
func TestSegmentCut(t *testing.T) {
	for p := 1; p <= 40; p++ {
		for w := 1; w <= 12; w++ {
			r := newRun(&stubHost{p: p}, New(w).workersFor(p))
			segs := len(r.queues)
			if want := min(p, segmentsPerWorker*min(w, p)); segs != want {
				t.Fatalf("P=%d W=%d: %d segments, want %d", p, w, segs, want)
			}
			next := 0
			for g := 0; g < segs; g++ {
				lo, hi := r.cut.Shard(g)
				if lo != next || hi <= lo || hi-lo > p/segs+1 {
					t.Fatalf("P=%d W=%d: segment %d is [%d, %d) after %d", p, w, g, lo, hi, next)
				}
				next = hi
			}
			if next != p {
				t.Fatalf("P=%d W=%d: segments end at %d", p, w, next)
			}
		}
	}
}

// exclusionHost records, for every stage, whether two slots or commit
// jobs of that stage ever overlapped in time — the invariant a segment's
// serialization guarantees for each of its stages — and whether a stage's
// forward, recompute or backward slots arrived out of microbatch order.
// rec switches the Appendix D recompute climb on, which re-enters segment 0
// from the last segment. As a Commit it clips, so every step waits for
// the fold over all stages, and its forward slots lag one commit.
type exclusionHost struct {
	p      int
	rec    bool
	inSlot []atomic.Int32 // per stage: slots currently executing

	mu         sync.Mutex
	violations []string
	last       [3][]int // per slot kind (fwd, recompute, bwd), per stage: last s seen
}

func newExclusionHost(p int) *exclusionHost {
	h := &exclusionHost{p: p, inSlot: make([]atomic.Int32, p)}
	for k := range h.last {
		h.last[k] = make([]int, p)
	}
	h.reset()
	return h
}

// reset forgets the last microbatch seen: every minibatch restarts s at 0.
func (h *exclusionHost) reset() {
	for k := range h.last {
		for i := range h.last[k] {
			h.last[k][i] = -1
		}
	}
}

func (h *exclusionHost) violate(msg string) {
	h.mu.Lock()
	h.violations = append(h.violations, msg)
	h.mu.Unlock()
}

// enter/leave bracket a stage slot, spinning briefly so a scheduler bug
// that lets two workers into one stage actually overlaps. The spin yields
// rather than sleeps: a sleep this short lasts far longer than asked on a
// loaded box, and thousands of slots run serially at W = 1.
func (h *exclusionHost) enter(stage int) {
	if h.inSlot[stage].Add(1) != 1 {
		h.violate("two slots of one stage ran concurrently")
	}
	for t0 := time.Now(); time.Since(t0) < 20*time.Microsecond; {
		runtime.Gosched()
	}
}
func (h *exclusionHost) leave(stage int) { h.inSlot[stage].Add(-1) }

// slot brackets one slot of the given kind, checking its microbatch order.
func (h *exclusionHost) slot(kind, s, st int) {
	h.enter(st)
	defer h.leave(st)
	h.mu.Lock()
	if s <= h.last[kind][st] {
		h.violations = append(h.violations, []string{"forward", "recompute", "backward"}[kind]+" slots out of microbatch order")
	}
	h.last[kind][st] = s
	h.mu.Unlock()
}

func (h *exclusionHost) Stages() int           { return h.p }
func (h *exclusionHost) Recompute() bool       { return h.rec }
func (h *exclusionHost) MicroBase() int        { return 0 }
func (h *exclusionHost) Restore(st int)        { h.enter(st); h.leave(st) }
func (h *exclusionHost) BeginMicro(int, []int) {}

func (h *exclusionHost) StageForward(s, st int) float64 { h.slot(0, s, st); return 0.5 }
func (h *exclusionHost) StageRecompute(s, st int)       { h.slot(1, s, st) }
func (h *exclusionHost) StageBackward(s, st int)        { h.slot(2, s, st) }

func (h *exclusionHost) EndMicro(int)         {}
func (h *exclusionHost) BadLoss(float64) bool { return false }

func (h *exclusionHost) Lag(int, int) int               { return 1 }
func (h *exclusionHost) Clips() bool                    { return true }
func (h *exclusionHost) PrepareStage(st, _ int) float64 { h.enter(st); h.leave(st); return 1 }
func (h *exclusionHost) ClipScale(float64) float64      { return 1 }
func (h *exclusionHost) StepStage(st int, _ float64)    { h.enter(st); h.leave(st) }

// TestStageSlotsNeverOverlap pins the scheduler's core invariant under
// maximal contention: many workers, one- and multi-stage segments of
// uneven sizes (P ∈ {6, 13, 27} cut into min(P, segmentsPerWorker·W)
// segments), deep
// overlap, and the recompute climb on every other minibatch — yet no two
// slots of one stage may ever run concurrently, and each stage's forward,
// recompute and backward sequences stay in microbatch order; and the same
// over a committing stream of three minibatches, whose commit jobs share
// their stage's exclusion.
func TestStageSlotsNeverOverlap(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	micros := make([][]int, 24)
	for i := range micros {
		micros[i] = []int{i}
	}
	for _, p := range []int{6, 13, 27} {
		for _, workers := range []int{1, 2, 4, 8} {
			h := newExclusionHost(p)
			e := New(workers)
			for mb := 0; mb < 3; mb++ {
				h.rec = mb%2 == 1
				if _, err := e.Stream(context.Background(), h, [][][]int{micros}, nil); err != nil {
					t.Fatal(err)
				}
				h.reset()
			}
			if _, err := e.Stream(context.Background(), h, [][][]int{micros, micros, micros}, h); err != nil {
				t.Fatal(err)
			}
			if len(h.violations) > 0 {
				t.Fatalf("P=%d W=%d: %d violations, first: %s", p, workers, len(h.violations), h.violations[0])
			}
		}
	}
}
