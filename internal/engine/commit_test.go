package engine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/trace"
)

// fakeCommitter checks the commit contract at call time, for any shard
// count: every stage is prepared exactly once before the clip fold, the
// fold is the stage-ordered left fold of the partials, the step clock
// advances exactly once after every prepare and before any stage is
// scaled or stepped, each stage is scaled (with the folded factor), then
// stepped, then finished, once each and in that order. The partials are
// chosen so that any other summation order gives a different float.
type fakeCommitter struct {
	*fakeHost // the slot surface a pool engine is started over
	rec       *trace.Recorder

	mu                                  sync.Mutex
	prepared, scaled, stepped, finished []int
	begun                               int
	clipped                             bool
}

var clipPartials = []float64{1e16, 1, -1e16, 1, 1, 3}

func newFakeCommitter() *fakeCommitter {
	p := len(clipPartials)
	return &fakeCommitter{fakeHost: newFakeHost(p, false, -1), rec: trace.New(),
		prepared: make([]int, p), scaled: make([]int, p), stepped: make([]int, p), finished: make([]int, p)}
}

func (f *fakeCommitter) Tracer() (*trace.Recorder, int) { return f.rec, 0 }

func (f *fakeCommitter) all(counts []int) bool {
	for _, n := range counts {
		if n != 1 {
			return false
		}
	}
	return true
}

func (f *fakeCommitter) PrepareStage(stage, nMicro int) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if nMicro != 3 {
		f.errf("PrepareStage(%d) over %d microbatches, want 3", stage, nMicro)
	}
	if f.clipped {
		f.errf("PrepareStage(%d) after the clip fold", stage)
	}
	f.prepared[stage]++
	return clipPartials[stage]
}

func (f *fakeCommitter) ClipScale(sumSq float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.all(f.prepared) {
		f.errf("ClipScale before every stage was prepared once: %v", f.prepared)
	}
	want := 0.0
	for _, v := range clipPartials {
		want += v
	}
	if sumSq != want {
		f.errf("ClipScale sum %g, want the stage-ordered fold %g", sumSq, want)
	}
	f.clipped = true
	return 0.5
}

func (f *fakeCommitter) BeginStep() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.clipped {
		f.errf("BeginStep before the clip fold")
	}
	f.begun++
}

func (f *fakeCommitter) ScaleStage(stage int, scale float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.begun != 1 || f.stepped[stage] != 0 {
		f.errf("ScaleStage(%d) with %d step-clock advances and %d steps of the stage", stage, f.begun, f.stepped[stage])
	}
	if scale != 0.5 {
		f.errf("ScaleStage scale %g, want 0.5", scale)
	}
	f.scaled[stage]++
}

func (f *fakeCommitter) StepStage(stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.begun != 1 || f.scaled[stage] != 1 {
		f.errf("StepStage(%d) with %d step-clock advances and %d scalings of the stage", stage, f.begun, f.scaled[stage])
	}
	f.stepped[stage]++
}

func (f *fakeCommitter) FinishStage(stage int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stepped[stage] != 1 {
		f.errf("FinishStage(%d) after %d steps of the stage", stage, f.stepped[stage])
	}
	f.finished[stage]++
}

// TestCommitRunsPhasesInOrderForAnyShardCount drives the one commit
// executor serially (no pool) and across the concurrent engine's workers
// for W ∈ {1, 2, 4}: the phase order, the once-per-stage coverage and the
// stage-ordered clip fold hold for every shard count, and the commit spans
// keep their names on worker tracks.
func TestCommitRunsPhasesInOrderForAnyShardCount(t *testing.T) {
	rev := 0.0
	for i := len(clipPartials) - 1; i >= 0; i-- {
		rev += clipPartials[i]
	}
	fwd := 0.0
	for _, v := range clipPartials {
		fwd += v
	}
	if fwd == rev {
		t.Fatal("the clip partials do not distinguish summation orders")
	}
	for _, w := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			f := newFakeCommitter()
			var pool engine.Pool
			if w > 0 {
				eng := concurrent.New(concurrent.WithWorkers(w))
				eng.Start(f)
				defer eng.Stop()
				if eng.Shards() != w {
					t.Fatalf("pool of %d shards, want %d", eng.Shards(), w)
				}
				pool = eng
			}
			engine.Commit(f, 3, pool)
			if len(f.errs) > 0 {
				t.Fatalf("commit contract violations: %v", f.errs)
			}
			if f.begun != 1 || !f.all(f.prepared) || !f.all(f.scaled) || !f.all(f.stepped) || !f.all(f.finished) {
				t.Fatalf("begun %d, prepared %v, scaled %v, stepped %v, finished %v; want once each",
					f.begun, f.prepared, f.scaled, f.stepped, f.finished)
			}
			shards := max(w, 1)
			spans := map[string]int{}
			for _, tk := range f.rec.Tracks() {
				for _, ev := range tk.Events() {
					if !strings.HasPrefix(ev.Name, "commit:") {
						t.Fatalf("unexpected %q event during a commit", ev.Name)
					}
					if tk.Tid >= trace.TidCollectives {
						t.Fatalf("%s span on track %d, want a worker track", ev.Name, tk.Tid)
					}
					spans[ev.Name]++
				}
			}
			for _, name := range []string{trace.NameCommitPrepare, trace.NameCommitScale, trace.NameCommitStep, trace.NameCommitFinish} {
				if spans[name] != shards {
					t.Fatalf("%d %s spans, want one per shard (%d): %v", spans[name], name, shards, spans)
				}
			}
		})
	}
}

// TestCommitPlanCoversEveryStageExactlyOnce is the shard-assignment
// property the sharded commit's correctness rests on, swept over
// P ∈ {1..8} × owners ∈ {1..4} (the replica grid) plus owners > P: shards
// are contiguous, ascending, sizes differ by at most one, and
// concatenating them in owner order enumerates every stage exactly once.
func TestCommitPlanCoversEveryStageExactlyOnce(t *testing.T) {
	for p := 1; p <= 8; p++ {
		for owners := 1; owners <= 4; owners++ {
			pl := engine.NewCommitPlan(p, owners)
			if pl.Stages() != p || pl.Owners() != owners {
				t.Fatalf("P=%d owners=%d: plan reports %d stages, %d owners", p, owners, pl.Stages(), pl.Owners())
			}
			next, minSz, maxSz := 0, p, 0
			for r := 0; r < owners; r++ {
				lo, hi := pl.Shard(r)
				if lo != next || hi < lo {
					t.Fatalf("P=%d owners=%d: owner %d shard [%d, %d) not contiguous after %d", p, owners, r, lo, hi, next)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				for st := lo; st < hi; st++ {
					if got := pl.OwnerOf(st); got != r {
						t.Fatalf("P=%d owners=%d: OwnerOf(%d) = %d, want %d", p, owners, st, got, r)
					}
				}
				next = hi
			}
			if next != p {
				t.Fatalf("P=%d owners=%d: shards cover %d stages, want %d", p, owners, next, p)
			}
			if owners <= p && maxSz-minSz > 1 {
				t.Fatalf("P=%d owners=%d: shard sizes span [%d, %d], want balanced within 1", p, owners, minSz, maxSz)
			}
		}
		// More owners than stages: the extras own empty shards, coverage holds.
		pl := engine.NewCommitPlan(p, p+3)
		covered := 0
		for r := 0; r < pl.Owners(); r++ {
			lo, hi := pl.Shard(r)
			covered += hi - lo
		}
		if covered != p {
			t.Fatalf("P=%d owners=%d: shards cover %d stages, want %d", p, p+3, covered, p)
		}
	}
}

// TestCommitPlanCoversEveryParamExactlyOnce lifts the property to
// optimizer parameter indices: under uneven per-stage parameter counts
// (the partition's stage ranges), the owner shards' induced parameter
// ranges still cover every index exactly once — no parameter is stepped
// twice or skipped, for P ∈ {1..8} × R ∈ {1..4}.
func TestCommitPlanCoversEveryParamExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for p := 1; p <= 8; p++ {
		for r := 1; r <= 4; r++ {
			// Uneven stage parameter counts, some stages heavy, none empty.
			stageLo := make([]int, p)
			stageHi := make([]int, p)
			n := 0
			for st := 0; st < p; st++ {
				stageLo[st] = n
				n += 1 + rng.Intn(5)
				stageHi[st] = n
			}
			steps := make([]int, n) // times each param index is stepped
			pl := engine.NewCommitPlan(p, r)
			for o := 0; o < pl.Owners(); o++ {
				lo, hi := pl.Shard(o)
				for st := lo; st < hi; st++ {
					for i := stageLo[st]; i < stageHi[st]; i++ {
						steps[i]++
					}
				}
			}
			for i, k := range steps {
				if k != 1 {
					t.Fatalf("P=%d R=%d: param %d stepped %d times, want exactly once", p, r, i, k)
				}
			}
		}
	}
}

// TestCommitPlanRejectsDegenerateInputs pins the constructor's contract.
func TestCommitPlanRejectsDegenerateInputs(t *testing.T) {
	for _, tc := range []struct{ p, owners int }{{0, 1}, {1, 0}, {-1, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCommitPlan(%d, %d) did not panic", tc.p, tc.owners)
				}
			}()
			engine.NewCommitPlan(tc.p, tc.owners)
		}()
	}
}
