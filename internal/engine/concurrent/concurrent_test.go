package concurrent

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestOptionsAndName(t *testing.T) {
	if New().Name() != "concurrent" {
		t.Fatal("engine name wrong")
	}
}

func TestStopWithoutStartIsANoOp(t *testing.T) {
	e := New()
	e.Stop() // must not panic or wedge
	e.Stop()
}

func TestWithWorkersOption(t *testing.T) {
	if e := New(WithWorkers(3)); e.workers != 3 {
		t.Fatalf("workers = %d, want 3", e.workers)
	}
	if e := New(WithWorkers(-2)); e.workers != 0 {
		t.Fatalf("WithWorkers(-2) must clamp to auto, got %d", e.workers)
	}
	// Auto resolves to min(P, GOMAXPROCS); explicit W > P clamps to P.
	e := New(WithWorkers(64))
	e.Start(&stubHost{p: 3})
	if e.nw != 3 {
		t.Fatalf("started %d workers for P=3, want 3", e.nw)
	}
	e.Stop()
	e = New()
	e.Start(&stubHost{p: 16})
	want := runtime.GOMAXPROCS(0)
	if want > 16 {
		want = 16
	}
	if e.nw != want {
		t.Fatalf("auto workers = %d, want min(P, GOMAXPROCS) = %d", e.nw, want)
	}
	e.Stop()
}

// exclusionHost records, for every stage, whether two slots of that stage
// ever overlapped in time — the stage-as-serialization-domain invariant —
// and whether a stage's slots arrived out of microbatch order.
type exclusionHost struct {
	p      int
	inSlot []atomic.Int32 // per stage: slots currently executing

	mu         sync.Mutex
	violations []string
	lastFwd    []int // per stage: last forward s seen
	lastBwd    []int // per stage: last backward s seen
}

func newExclusionHost(p int) *exclusionHost {
	h := &exclusionHost{p: p, inSlot: make([]atomic.Int32, p),
		lastFwd: make([]int, p), lastBwd: make([]int, p)}
	for i := range h.lastFwd {
		h.lastFwd[i], h.lastBwd[i] = -1, -1
	}
	return h
}

func (h *exclusionHost) violate(msg string) {
	h.mu.Lock()
	h.violations = append(h.violations, msg)
	h.mu.Unlock()
}

// enter/leave bracket a stage slot, spinning briefly so a scheduler bug
// that lets two workers into one stage actually overlaps.
func (h *exclusionHost) enter(stage int) {
	if h.inSlot[stage].Add(1) != 1 {
		h.violate("two slots of one stage ran concurrently")
	}
	time.Sleep(50 * time.Microsecond)
}
func (h *exclusionHost) leave(stage int) { h.inSlot[stage].Add(-1) }

func (h *exclusionHost) Stages() int             { return h.p }
func (h *exclusionHost) Recompute() bool         { return false }
func (h *exclusionHost) MicroBase() int          { return 0 }
func (h *exclusionHost) Restore(st int)          { h.enter(st); h.leave(st) }
func (h *exclusionHost) BeginMicro(int, []int)   {}
func (h *exclusionHost) StageRecompute(_, _ int) {}

func (h *exclusionHost) StageForward(s, st int) float64 {
	h.enter(st)
	defer h.leave(st)
	h.mu.Lock()
	if s <= h.lastFwd[st] {
		h.violations = append(h.violations, "forward slots out of microbatch order")
	}
	h.lastFwd[st] = s
	h.mu.Unlock()
	return 0.5
}

func (h *exclusionHost) StageBackward(s, st int) {
	h.enter(st)
	defer h.leave(st)
	h.mu.Lock()
	if s <= h.lastBwd[st] {
		h.violations = append(h.violations, "backward slots out of microbatch order")
	}
	h.lastBwd[st] = s
	h.mu.Unlock()
}

func (h *exclusionHost) EndMicro(int)         {}
func (h *exclusionHost) BadLoss(float64) bool { return false }

// TestStageSlotsNeverOverlap pins the scheduler's core invariant under
// maximal contention: many workers, many stages, deep overlap — yet no
// two slots of one stage may ever run concurrently, and each stage's
// forward/backward sequences stay in microbatch order.
func TestStageSlotsNeverOverlap(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, workers := range []int{1, 2, 4, 8} {
		h := newExclusionHost(6)
		e := New(WithWorkers(workers))
		micros := make([][]int, 24)
		for i := range micros {
			micros[i] = []int{i}
		}
		for mb := 0; mb < 3; mb++ {
			if _, err := e.Minibatch(context.Background(), h, micros); err != nil {
				t.Fatal(err)
			}
			for i := range h.lastFwd {
				h.lastFwd[i], h.lastBwd[i] = -1, -1
			}
		}
		e.Stop()
		if len(h.violations) > 0 {
			t.Fatalf("W=%d: %d violations, first: %s", workers, len(h.violations), h.violations[0])
		}
	}
}
