package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/leakcheck"
)

// fakeHost checks the Host ordering contract at call time: a microbatch's
// slots must run in chain order (forward climbing 0..P−1, the recompute
// climb exactly when Recompute reports it, backward descending P−1..0,
// bracketed by BeginMicro/EndMicro), and every stage must be restored
// after its last slot. It is safe for concurrent use so the same harness
// validates both engines, and it records the peak number of in-flight
// microbatches so tests can pin the overlap behaviour. Where each check
// of the pre-split fakeHost went: installs-before-compute is core's
// (TestSlotsInstallBeforeTheyCompute and the version-rule probes), the
// commit-phase order is the executor's (commit_test.go).
type fakeHost struct {
	mu    sync.Mutex
	p     int
	rec   bool
	badAt int // microbatch index whose loss is "bad" (-1: never)

	dirty []bool // per stage: a slot ran since the last Restore

	open        map[int]*microState
	maxInFlight int
	completed   int
	losses      []float64 // last-stage losses in arrival order
	sawBwd      bool

	errs []string
}

type microState struct {
	k       int
	fwdNext int // next stage whose forward (or recompute) slot should run
	climbs  int // completed forward climbs
	bwdNext int // next stage whose backward slot should run (-1: descent not started)
}

func newFakeHost(p int, rec bool, badAt int) *fakeHost {
	return &fakeHost{p: p, rec: rec, badAt: badAt,
		dirty: make([]bool, p), open: map[int]*microState{}}
}

func (f *fakeHost) errf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

func (f *fakeHost) Stages() int     { return f.p }
func (f *fakeHost) Recompute() bool { return f.rec }
func (f *fakeHost) MicroBase() int  { return 0 }

func (f *fakeHost) Restore(stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirty[stage] = false
}

func (f *fakeHost) BeginMicro(s int, mb []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.open[s]; ok {
		f.errf("BeginMicro(%d) while already in flight", s)
	}
	f.open[s] = &microState{k: s, bwdNext: -1}
	if len(f.open) > f.maxInFlight {
		f.maxInFlight = len(f.open)
	}
}

// climb advances microbatch s's forward or recompute climb by one stage
// and reports whether the stage is the last.
func (f *fakeHost) climb(kind string, s, stage, wantClimbs int) (ms *microState, top bool) {
	ms = f.open[s]
	if ms == nil {
		f.errf("%s slot (%d, %d) without BeginMicro", kind, s, stage)
		return nil, false
	}
	f.dirty[stage] = true
	if ms.climbs != wantClimbs {
		f.errf("%s slot (%d, %d) after %d completed climbs, want %d", kind, s, stage, ms.climbs, wantClimbs)
	}
	if ms.fwdNext != stage {
		f.errf("%s slot (%d, %d) out of chain order (want stage %d)", kind, s, stage, ms.fwdNext)
	}
	ms.fwdNext++
	if stage == f.p-1 {
		ms.fwdNext = 0
		ms.climbs++
		return ms, true
	}
	return ms, false
}

func (f *fakeHost) StageForward(s, stage int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, top := f.climb("forward", s, stage, 0); top {
		loss := 1.0
		if s == f.badAt {
			loss = 1e12
		}
		f.losses = append(f.losses, loss)
		return loss
	}
	return 0
}

func (f *fakeHost) StageRecompute(s, stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.rec {
		f.errf("recompute slot (%d, %d) with recompute off", s, stage)
	}
	f.climb("recompute", s, stage, 1)
}

func (f *fakeHost) StageBackward(s, stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ms := f.open[s]
	if ms == nil {
		f.errf("StageBackward(%d, %d) without BeginMicro", s, stage)
		return
	}
	f.dirty[stage] = true
	if ms.bwdNext == -1 {
		wantClimbs := 1
		if f.rec {
			wantClimbs = 2
		}
		if ms.climbs != wantClimbs {
			f.errf("backward of %d after %d forward climbs, want %d", s, ms.climbs, wantClimbs)
		}
		ms.bwdNext = f.p - 1
	}
	if stage != ms.bwdNext {
		f.errf("backward slot (%d, %d) out of chain order (want stage %d)", s, stage, ms.bwdNext)
	}
	ms.bwdNext--
	if ms.bwdNext < 0 {
		f.sawBwd = true
	}
}

func (f *fakeHost) EndMicro(s int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.open[s]; !ok {
		f.errf("EndMicro(%d) without BeginMicro", s)
		return
	}
	delete(f.open, s)
	f.completed++
}

func (f *fakeHost) BadLoss(loss float64) bool { return loss > 1e6 }

// quiesced reports what must hold when Minibatch returns, whatever it
// returns — the precondition of the commit that follows: no microbatch in
// flight and every stage restored since its last slot.
func (f *fakeHost) quiesced(t *testing.T) {
	t.Helper()
	if len(f.open) != 0 {
		t.Fatalf("%d microbatches left in flight when Minibatch returned", len(f.open))
	}
	for st, d := range f.dirty {
		if d {
			t.Fatalf("stage %d not restored after its last slot", st)
		}
	}
}

func engines() map[string]engine.Engine {
	// One worker cuts a P ≥ 5 pipeline into 4 segments, so at least one of
	// them spans two stages whatever GOMAXPROCS is.
	return map[string]engine.Engine{
		"reference":       engine.NewReference(),
		"concurrent":      concurrent.New(),
		"concurrent(W=1)": concurrent.New(concurrent.WithWorkers(1)),
	}
}

// TestOneEngineDrivesManyHosts pins what every replica and every trainer
// of a process relies on: an engine holds no run resources, so one value
// drives several hosts at once — pipelines of different depths, with and
// without the recompute climb — each keeping the ordering contract, and
// every goroutine a Minibatch starts is gone once it returns.
func TestOneEngineDrivesManyHosts(t *testing.T) {
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			hosts := []*fakeHost{newFakeHost(5, false, -1), newFakeHost(5, true, -1), newFakeHost(3, false, -1)}
			var wg sync.WaitGroup
			for _, f := range hosts {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for mb := 0; mb < 2; mb++ {
						if _, err := eng.Minibatch(context.Background(), f, micros(4, 2)); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			for i, f := range hosts {
				if len(f.errs) > 0 || f.completed != 8 {
					t.Fatalf("host %d: ordering violations %v, %d of 8 microbatches completed", i, f.errs, f.completed)
				}
				f.quiesced(t)
			}
			// wg.Done runs before its goroutine exits: settle briefly.
			if n := leakcheck.Settled(baseline, time.Second); n > baseline {
				t.Fatalf("%d goroutines outlive the minibatches", n-baseline)
			}
		})
	}
}

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func micros(n, sz int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, sz)
	}
	return out
}

// TestHostIsTheSlotScheduleAndNothingElse pins the interface's width:
// what a slot reads (the installs) and what an update does (the commit
// phases) are the trainer's and the replica group's, not an engine's.
func TestHostIsTheSlotScheduleAndNothingElse(t *testing.T) {
	h := reflect.TypeOf((*engine.Host)(nil)).Elem()
	if h.NumMethod() > 10 {
		t.Fatalf("engine.Host has %d methods, want at most 10", h.NumMethod())
	}
	banned := "Async PrepareStage ClipScale ScaleStage BeginStep StepStage FinishStage"
	for i := 0; i < h.NumMethod(); i++ {
		if name := h.Method(i).Name; strings.HasPrefix(name, "Install") || slices.Contains(strings.Fields(banned), name) {
			t.Fatalf("engine.Host declares %s", name)
		}
	}
}

// splitName names an engine's subtest. Every host runs stage programs now
// — the monolithic-host twin of each subtest left with that mode — and the
// surviving ids keep their suffix so -run filters and CI history still
// find them.
func splitName(engine string) string { return engine + "/split=true" }

func TestEnginesHonourHostOrderingContract(t *testing.T) {
	for name, eng := range engines() {
		t.Run(splitName(name), func(t *testing.T) {
			for _, rec := range []bool{true, false} {
				f := newFakeHost(5, rec, -1)
				loss, err := eng.Minibatch(context.Background(), f, micros(4, 2))
				if err != nil {
					t.Fatal(err)
				}
				if loss != 1.0 {
					t.Fatalf("mean loss %g, want 1", loss)
				}
				if len(f.errs) > 0 {
					t.Fatalf("recompute=%v: ordering violations: %v", rec, f.errs)
				}
				if len(f.losses) != 4 || f.completed != 4 || !f.sawBwd {
					t.Fatalf("losses %d, completed %d, backward %v, want 4/4/true", len(f.losses), f.completed, f.sawBwd)
				}
				f.quiesced(t)
			}
		})
	}
}

// TestConcurrentEngineOverlapsMicrobatches pins the point of stage
// programs: the concurrent engine keeps P microbatches in flight, the
// reference engine one.
func TestConcurrentEngineOverlapsMicrobatches(t *testing.T) {
	for _, tc := range []struct {
		eng  engine.Engine
		want int
	}{{concurrent.New(), 4}, {engine.NewReference(), 1}} {
		f := newFakeHost(4, false, -1)
		if _, err := tc.eng.Minibatch(context.Background(), f, micros(8, 2)); err != nil {
			t.Fatal(err)
		}
		if len(f.errs) > 0 {
			t.Fatalf("%s: ordering violations: %v", tc.eng.Name(), f.errs)
		}
		if f.maxInFlight != tc.want {
			t.Fatalf("%s: max in flight = %d, want %d", tc.eng.Name(), f.maxInFlight, tc.want)
		}
	}
}

func TestEnginesReportDivergence(t *testing.T) {
	for name, eng := range engines() {
		t.Run(splitName(name), func(t *testing.T) {
			f := newFakeHost(3, false, 1)
			_, err := eng.Minibatch(context.Background(), f, micros(4, 2))
			if !errors.Is(err, engine.ErrDiverged) {
				t.Fatalf("error = %v, want ErrDiverged", err)
			}
			if len(f.errs) > 0 {
				t.Fatalf("ordering violations: %v", f.errs)
			}
			// The bad microbatch is index 1: exactly 2 losses were
			// computed (later in-flight chains are aborted), and its
			// chain never reached a backward slot.
			if len(f.losses) != 2 {
				t.Fatalf("computed losses = %d, want 2", len(f.losses))
			}
			f.quiesced(t)
		})
	}
}

func TestEnginesHonourContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			f := newFakeHost(2, false, -1)
			_, err := eng.Minibatch(ctx, f, micros(2, 2))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if len(f.losses) != 0 {
				t.Fatal("no forward slot may run after cancellation")
			}
			f.quiesced(t)
		})
	}
}
