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

	// As an engine.Commit (commitHost) it keeps a ledger of the wait rule
	// with Table 1's lags over N = n: a slot at stage i of minibatch k
	// finds stage i's commits of every earlier minibatch done (a forward
	// slot only those that produced its version), a stage prepares only
	// once all n of its backward slots of the minibatch have run, and
	// steps once per minibatch, after the fold when clip is set.
	n        int
	clip     bool
	grads    []int // per stage: backward slots since its last step
	stepped  []int // per stage: minibatches committed
	prepared []bool
	folded   bool
	bwdOf    map[int]int   // backward slots per minibatch
	ahead    bool          // a slot of minibatch k+1 ran before stage 0 committed k
	gate     chan struct{} // closed when ahead is set
	gated    bool          // stage 1's last backward slot of minibatch 0 waits for the gate

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

// commitHost is a fakeHost that streams minibatches of n microbatches and
// commits them inside the stream (engine.Commit).
type commitHost struct{ *fakeHost }

func newCommitHost(p, n int, clip bool, badAt int) commitHost {
	f := newFakeHost(p, false, badAt)
	f.n, f.clip = n, clip
	f.grads, f.stepped, f.prepared = make([]int, p), make([]int, p), make([]bool, p)
	f.bwdOf, f.gate = map[int]int{}, make(chan struct{})
	return commitHost{f}
}

// Lag is Table 1's: the forward slot of s at stage i reads version
// ⌊max(s + 2(i+1−P), 0)/N⌋.
func (h commitHost) Lag(s, stage int) int {
	return s/h.n - max(s+2*(stage+1-h.p), 0)/h.n
}

func (h commitHost) Clips() bool { return h.clip }

func (h commitHost) PrepareStage(stage, nMicro int) float64 {
	f := h.fakeHost
	f.mu.Lock()
	defer f.mu.Unlock()
	if nMicro != f.n || f.grads[stage] != f.n || f.prepared[stage] {
		f.errf("PrepareStage(%d, %d) after %d backward slots (prepared %v)", stage, nMicro, f.grads[stage], f.prepared[stage])
	}
	f.prepared[stage] = true
	return 1
}

func (h commitHost) ClipScale(sumSq float64) float64 {
	f := h.fakeHost
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.clip || sumSq != float64(f.p) || slices.Contains(f.prepared, false) {
		f.errf("ClipScale(%g) with prepared %v", sumSq, f.prepared)
	}
	f.folded = true
	return 0.5
}

func (h commitHost) StepStage(stage int, scale float64) {
	f := h.fakeHost
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.prepared[stage] || f.clip != f.folded || (f.clip && scale != 0.5) || (!f.clip && scale != 1) {
		f.errf("StepStage(%d, %g): prepared %v, folded %v", stage, scale, f.prepared[stage], f.folded)
	}
	f.prepared[stage] = false
	f.grads[stage] = 0
	f.stepped[stage]++
	if !slices.Contains(f.prepared, true) {
		f.folded = false
	}
}

// StageBackward holds stage 1's last backward slot of minibatch 0, when
// gated, until a slot of minibatch 1 has run (or five seconds have
// passed): a pipeline that drains between minibatches cannot get there.
func (h commitHost) StageBackward(s, stage int) {
	if h.gated && s == h.n-1 && stage == 1 {
		select {
		case <-h.gate:
		case <-time.After(5 * time.Second):
		}
	}
	h.fakeHost.StageBackward(s, stage)
}

// waits checks, at a slot of microbatch s at the stage, that the stage has
// made the commits the wait rule names, and no later one.
func (f *fakeHost) waits(kind string, s, stage int) {
	if f.n == 0 {
		return
	}
	k, need := s/f.n, s/f.n
	if kind == "forward" {
		need = max(s+2*(stage+1-f.p), 0) / f.n
	}
	if got := f.stepped[stage]; got < need || got > k {
		f.errf("%s slot (%d, %d) after %d commits of the stage, want %d..%d", kind, s, stage, got, need, k)
	}
	if k > f.stepped[0] && !f.ahead {
		f.ahead = true
		close(f.gate)
	}
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
	f.waits(kind, s, stage)
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
	f.waits("backward", s, stage)
	if f.n > 0 {
		f.grads[stage]++
		f.bwdOf[s/f.n]++
	}
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

// quiesced reports what must hold when Stream returns, whatever it
// returns — the precondition of whatever the trainer does next: no
// microbatch in flight and every stage restored since its last slot.
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
	// One worker cuts a P ≥ 5 pipeline into 2 segments, so at least one of
	// them spans several stages whatever GOMAXPROCS is.
	return map[string]engine.Engine{
		"reference":       engine.NewReference(),
		"concurrent":      concurrent.New(0),
		"concurrent(W=1)": concurrent.New(1),
	}
}

// TestOneEngineDrivesManyHosts pins what every replica and every trainer
// of a process relies on: an engine holds no run resources, so one value
// drives several hosts at once — pipelines of different depths, with and
// without the recompute climb — each keeping the ordering contract, and
// every goroutine a Stream starts is gone once it returns.
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
						if _, err := eng.Stream(context.Background(), f, [][][]int{micros(4, 2)}, nil); err != nil {
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
				t.Fatalf("%d goroutines outlive the streams", n-baseline)
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
				losses, err := eng.Stream(context.Background(), f, [][][]int{micros(4, 2)}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(losses) != 1 || losses[0] != 1.0 {
					t.Fatalf("mean losses %v, want [1]", losses)
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
	}{{concurrent.New(0), 4}, {engine.NewReference(), 1}} {
		f := newFakeHost(4, false, -1)
		if _, err := tc.eng.Stream(context.Background(), f, [][][]int{micros(8, 2)}, nil); err != nil {
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

// TestEnginesReportDivergence pins the abort path: in a one-minibatch
// stream the bad microbatch's chain never reaches a backward slot and the
// later chains stop; in a committing stream whose third minibatch goes bad
// at its first microbatch, the two before commit everywhere, and the bad
// minibatch and the one behind it run no backward slot and push no
// version.
func TestEnginesReportDivergence(t *testing.T) {
	for name, eng := range engines() {
		t.Run(splitName(name), func(t *testing.T) {
			f := newFakeHost(3, false, 1)
			_, err := eng.Stream(context.Background(), f, [][][]int{micros(4, 2)}, nil)
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
		t.Run(name+"/stream", func(t *testing.T) {
			const p, n = 4, 8
			h := newCommitHost(p, n, false, 2*n)
			losses, err := eng.Stream(context.Background(), h, [][][]int{micros(n, 1), micros(n, 1), micros(n, 1), micros(n, 1)}, h)
			if !errors.Is(err, engine.ErrDiverged) || len(losses) != 2 {
				t.Fatalf("Stream = %v, %v; want two minibatches' losses and ErrDiverged", losses, err)
			}
			if len(h.errs) > 0 {
				t.Fatalf("wait-rule violations: %v", h.errs)
			}
			for st, c := range h.stepped {
				if c != 2 || h.grads[st] != 0 {
					t.Fatalf("stage %d committed %d minibatches and holds %d backward slots' gradient, want 2 and none", st, c, h.grads[st])
				}
			}
			if h.bwdOf[2]+h.bwdOf[3] != 0 {
				t.Fatalf("the bad minibatch and the next ran %d and %d backward slots, want none", h.bwdOf[2], h.bwdOf[3])
			}
			h.quiesced(t)
		})
	}
}

// TestEnginesHonourContextCancellation pins both cancellation points: a
// context cancelled before the stream runs no slot at all; one cancelled
// mid-stream — inside a commit of the second minibatch — stops the stream
// at the first minibatch it had not opened every chain of: every minibatch
// before that commits at every stage, and Stream returns their losses.
func TestEnginesHonourContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			f := newFakeHost(2, false, -1)
			_, err := eng.Stream(ctx, f, [][][]int{micros(2, 2)}, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if len(f.losses) != 0 {
				t.Fatal("no forward slot may run after cancellation")
			}
			f.quiesced(t)
		})
		t.Run(name+"/mid-stream", func(t *testing.T) {
			const p, n = 4, 4
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			h := cancelHost{newCommitHost(p, n, false, -1), cancel}
			mbs := [][][]int{micros(n, 1), micros(n, 1), micros(n, 1), micros(n, 1), micros(n, 1)}
			losses, err := eng.Stream(ctx, h, mbs, h)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error = %v, want context.Canceled", err)
			}
			if len(h.errs) > 0 {
				t.Fatalf("wait-rule violations: %v", h.errs)
			}
			for st, c := range h.stepped {
				if c != len(losses) {
					t.Fatalf("stage %d committed %d minibatches, Stream returned %d losses", st, c, len(losses))
				}
			}
			if len(losses) < 2 || len(losses) == len(mbs) {
				t.Fatalf("%d of %d minibatches committed, want the two before the cancel and not all", len(losses), len(mbs))
			}
			h.quiesced(t)
		})
	}
}

// cancelHost cancels its stream inside stage 0's step of the second
// minibatch.
type cancelHost struct {
	commitHost
	cancel context.CancelFunc
}

func (h cancelHost) StepStage(stage int, scale float64) {
	h.commitHost.StepStage(stage, scale)
	if stage == 0 && h.stepped[0] == 2 {
		h.cancel()
	}
}

// TestStreamOverlapsMinibatches pins the point of a stream: on a counting
// host at P = 4, N = 8, the concurrent engine at W = 2 runs a slot of
// minibatch k+1 before stage 0 has committed k — stage 1's last backward
// slot of minibatch 0 is held until one has — while every slot keeps the
// wait rule, every stage commits every minibatch, and Reference, in
// program order, keeps the rule too. Under the clip fold, which holds
// every step of k until stage 0 has prepared it, a job of k+1 that waits
// on that step must not hold back the jobs of k queued behind it: the
// stream completes at W ∈ {1, 2, 4}.
func TestStreamOverlapsMinibatches(t *testing.T) {
	const p, n, count = 4, 8, 4
	stream := func(t *testing.T, eng engine.Engine, h commitHost) {
		t.Helper()
		mbs := make([][][]int, count)
		for j := range mbs {
			mbs[j] = micros(n, 1)
		}
		done := make(chan error, 1)
		go func() {
			losses, err := eng.Stream(context.Background(), h, mbs, h)
			if err == nil && len(losses) != count {
				err = fmt.Errorf("%d losses for %d minibatches", len(losses), count)
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the stream did not complete")
		}
		if len(h.errs) > 0 {
			t.Fatalf("wait-rule violations: %v", h.errs)
		}
		for st, c := range h.stepped {
			if c != count {
				t.Fatalf("stage %d committed %d minibatches, want %d", st, c, count)
			}
		}
		h.quiesced(t)
	}
	t.Run("concurrent/W=2", func(t *testing.T) {
		h := newCommitHost(p, n, false, -1)
		h.gated = true
		stream(t, concurrent.New(2), h)
		if !h.ahead {
			t.Fatal("no slot of minibatch k+1 ran before stage 0 committed k: the stream drained")
		}
	})
	t.Run("reference", func(t *testing.T) {
		h := newCommitHost(p, n, true, -1)
		stream(t, engine.NewReference(), h)
		if h.ahead {
			t.Fatal("Reference ran a slot of minibatch k+1 before stage 0 committed k")
		}
	})
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("clip/W=%d", w), func(t *testing.T) {
			stream(t, concurrent.New(w), newCommitHost(p, n, true, -1))
		})
	}
}
