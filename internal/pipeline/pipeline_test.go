package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
)

func mkGroups(sizes ...int) []ParamGroup {
	var gs []ParamGroup
	for i, sz := range sizes {
		p := nn.NewParam("p", sz)
		gs = append(gs, ParamGroup{Name: string(rune('a' + i)), Params: []*nn.Param{p}})
	}
	return gs
}

func TestPartitionEven(t *testing.T) {
	gs := mkGroups(1, 1, 1, 1, 1, 1)
	pt, err := PartitionGroups(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 2, 2}
	for i, s := range pt.StageOf {
		if s != want[i] {
			t.Fatalf("StageOf = %v, want %v", pt.StageOf, want)
		}
	}
}

func TestPartitionOneGroupPerStage(t *testing.T) {
	gs := mkGroups(1, 2, 3, 4)
	pt, err := PartitionGroups(gs, 4)
	if err != nil {
		t.Fatal(err)
	}
	sizes := pt.StageSizes()
	for i, s := range sizes {
		if s != i+1 {
			t.Fatalf("StageSizes = %v", sizes)
		}
	}
}

func TestPartitionPropertyAllStagesNonEmptyAndOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 1 + rng.Intn(40)
		p := 1 + rng.Intn(g)
		pt, err := PartitionGroups(mkGroups(make([]int, g)...), p)
		if err != nil {
			return false
		}
		// Non-decreasing stage assignment and every stage non-empty.
		prev := 0
		seen := make([]bool, p)
		for _, s := range pt.StageOf {
			if s < prev || s >= p {
				return false
			}
			prev = s
			seen[s] = true
		}
		for _, ok := range seen {
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := PartitionGroups(nil, 1); err == nil {
		t.Fatal("empty groups must error")
	}
	if _, err := PartitionGroups(mkGroups(1, 1), 3); err == nil {
		t.Fatal("more stages than groups must error")
	}
	if _, err := PartitionGroups(mkGroups(1, 1), 0); err == nil {
		t.Fatal("zero stages must error")
	}
}

// TestPartitionByStageOfRebuildsAndRefuses: every even and cost-balanced
// partition rebuilds from its stage map alone, stages and parameter lists
// included, and a map that is not a partition — the wrong length, not
// starting at stage 0, going back, skipping a stage — is refused.
func TestPartitionByStageOfRebuildsAndRefuses(t *testing.T) {
	gs := mkGroups(3, 1, 1, 2, 1, 1, 4)
	for p := 1; p <= len(gs); p++ {
		even, _ := PartitionGroups(gs, p)
		cost, _ := PartitionGroupsByCost(gs, []float64{9, 1, 1, 2, 1, 1, 4}, p)
		for _, want := range []*Partition{even, cost} {
			got, err := PartitionByStageOf(gs, want.StageOf)
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			if got.P != want.P || !slices.Equal(got.StageOf, want.StageOf) || !reflect.DeepEqual(got.Stages, want.Stages) {
				t.Fatalf("P=%d: rebuilt %v (P=%d), want %v (P=%d)", p, got.StageOf, got.P, want.StageOf, want.P)
			}
		}
	}
	for _, bad := range [][]int{nil, {0, 0, 1}, {1, 1, 1, 1, 2, 2, 2}, {0, 1, 0, 1, 2, 2, 2}, {0, 0, 2, 2, 3, 3, 3}, {0, -1, 0, 0, 0, 0, 0}} {
		if _, err := PartitionByStageOf(gs, bad); err == nil {
			t.Errorf("stage map %v accepted", bad)
		}
	}
}

func TestFwdDelaySlotsTable1(t *testing.T) {
	// Table 1: first stage delay 2P−1 slots, last stage 1 slot.
	p := 8
	if got := FwdDelaySlots(1, p); got != 2*p-1 {
		t.Fatalf("first-stage delay = %d, want %d", got, 2*p-1)
	}
	if got := FwdDelaySlots(p, p); got != 1 {
		t.Fatalf("last-stage delay = %d, want 1", got)
	}
	// In minibatch units: (2(P−i)+1)/N.
	if got := FwdDelay(1, 8, 4); math.Abs(got-15.0/4) > 1e-15 {
		t.Fatalf("FwdDelay = %g, want 3.75", got)
	}
}

// fwdDelayUpdates returns the realized delay, in optimizer updates, between
// the weights read in the forward slot of microbatch s at stage i and the
// update that consumes its gradient (update index ⌊s/N⌋+1).
func fwdDelayUpdates(c Clock, s, stage1 int) int {
	return c.Minibatch(s) + 1 - c.FwdVersion(s, stage1)
}

func TestClockSlotDelayMatchesTable1(t *testing.T) {
	// FwdVersion's closed form against the package doc's slot model, counted
	// directly: the forward of microbatch s at stage i runs at slot s+i−1,
	// and stage i commits minibatch t at slot t·N+N−1+2P−i, so the forward
	// reads one version per minibatch whose commit slot is at or before it.
	for p := 1; p <= 12; p++ {
		for n := 1; n <= 8; n++ {
			c := Clock{P: p, N: n}
			for stage1 := 1; stage1 <= p; stage1++ {
				for s := 0; s < 3*n; s++ {
					committed := 0
					for mb := 0; mb*n+n-1+2*p-stage1 <= s+stage1-1; mb++ {
						committed++
					}
					if got := c.FwdVersion(s, stage1); got != committed {
						t.Fatalf("P=%d N=%d stage %d microbatch %d: FwdVersion %d, slot model %d", p, n, stage1, s, got, committed)
					}
				}
			}
		}
	}
	// In steady state the mean realized delay in updates over a minibatch's
	// microbatches is (2(P−i)+N)/N — the paper's (2(P−i)+1)/N up to the
	// ≤1-minibatch accumulation offset — and the last microbatch's delay is
	// exactly ⌈(2(P−i)+1)/N⌉.
	c := Clock{P: 6, N: 4}
	for stage1 := 1; stage1 <= c.P; stage1++ {
		m := 2 * (c.P - stage1)
		t0 := 50
		sum := 0
		for j := 0; j < c.N; j++ {
			sum += fwdDelayUpdates(c, t0*c.N+j, stage1)
		}
		wantMean := float64(m+c.N) / float64(c.N)
		if got := float64(sum) / float64(c.N); math.Abs(got-wantMean) > 1e-12 {
			t.Errorf("stage %d: mean delay %g updates, want %g", stage1, got, wantMean)
		}
		want := (m + 1 + c.N - 1) / c.N
		if got := fwdDelayUpdates(c, t0*c.N+c.N-1, stage1); got != want {
			t.Errorf("stage %d: last-microbatch delay %d, want %d", stage1, got, want)
		}
	}
}

func TestClockRecompVersionMatchesSlotModel(t *testing.T) {
	// Appendix D's versions against the slot model, counted directly. The
	// segments cut the stages as ⌊j·S/P⌋ does (0-indexed stage j), and e is
	// the last stage of stage i's segment. The recompute of microbatch s at
	// stage i runs at slot s+2P−2e+i−1, its backward at s+2P−i, and stage i
	// commits minibatch t at slot t·N+N−1+2P−i: the recompute reads one
	// version per commit at or before its slot, and τ_recomp is the slots
	// from it to the backward, in minibatches.
	for p := 1; p <= 12; p++ {
		for n := 1; n <= 8; n++ {
			for segs := 1; segs <= p+1; segs++ {
				c := Clock{P: p, N: n, Segments: segs}
				cut := min(segs, p)
				for stage1 := 1; stage1 <= p; stage1++ {
					e := stage1
					for e < p && e*cut/p == (stage1-1)*cut/p {
						e++
					}
					for s := 0; s < 3*n+2*p; s++ {
						slot := s + 2*p - 2*e + stage1 - 1
						committed := 0
						for mb := 0; mb*n+n-1+2*p-stage1 <= slot; mb++ {
							committed++
						}
						v, tau := c.RecompVersion(s, stage1)
						if v != committed {
							t.Fatalf("P=%d N=%d S=%d stage %d microbatch %d: RecompVersion %d, slot model %d", p, n, segs, stage1, s, v, committed)
						}
						if want := float64(s+2*p-stage1-slot) / float64(n); tau != want {
							t.Fatalf("P=%d N=%d S=%d stage %d: τ_recomp %g, slot model %g", p, n, segs, stage1, tau, want)
						}
					}
				}
			}
		}
	}
}

func TestClockKeepIsTheDeepestLookback(t *testing.T) {
	// The trainer commits once per minibatch, after its chains, so when any
	// slot of microbatch s reads, ⌊s/N⌋ updates are committed and the ring
	// holds versions up to ⌊s/N⌋. Each stage's Keep must be exactly one
	// more than the deepest lookback from there over that stage's forward
	// and recompute slots, and no slot may read a version not yet
	// committed.
	deepest := func(c Clock, micros int) []int {
		worst := make([]int, c.P)
		read := func(s, stage1, v int) {
			if v < 0 || v > c.Minibatch(s) {
				t.Fatalf("%+v microbatch %d: reads version %d with %d committed", c, s, v, c.Minibatch(s))
			}
			worst[stage1-1] = max(worst[stage1-1], c.Minibatch(s)-v)
		}
		for s := 0; s < micros; s++ {
			for stage1 := 1; stage1 <= c.P; stage1++ {
				read(s, stage1, c.FwdVersion(s, stage1))
				if c.Segments > 0 {
					v, _ := c.RecompVersion(s, stage1)
					read(s, stage1, v)
				}
			}
		}
		return worst
	}
	check := func(c Clock, micros int) {
		for stage, lookback := range deepest(c, micros) {
			if got, want := c.Keep(stage+1), 1+lookback; got != want {
				t.Fatalf("%+v stage %d: Keep %d, deepest lookback + 1 = %d", c, stage+1, got, want)
			}
		}
	}
	for p := 1; p <= 12; p++ {
		for n := 1; n <= 8; n++ {
			for segs := 0; segs <= p; segs++ {
				check(Clock{P: p, N: n, Segments: segs}, 4*n+2*p)
			}
		}
	}
	for _, tauMax := range []int{0, 1, 5} {
		check(Clock{P: 4, N: 2, Hogwild: &Hogwild{TauMax: tauMax, MeanScale: 2}, Seed: 7}, 400*2)
	}
}

func TestSegmentEnds(t *testing.T) {
	ends := func(p, segs int) []int {
		c := Clock{P: p, Segments: segs}
		out := make([]int, p)
		for i := range out {
			out[i] = c.segmentEnd(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		p, segs int
		want    []int
	}{
		{8, 2, []int{4, 4, 4, 4, 8, 8, 8, 8}},
		{5, 1, []int{5, 5, 5, 5, 5}},
		{3, 10, []int{1, 2, 3}}, // segments capped at P
		{4, 3, []int{2, 2, 3, 4}},
	} {
		if got := ends(tc.p, tc.segs); !slices.Equal(got, tc.want) {
			t.Errorf("segment ends (P=%d, S=%d) = %v, want %v", tc.p, tc.segs, got, tc.want)
		}
	}
	// fig17's recompute runs: P=107 in 4 segments of 27, 27, 27 and 26.
	got := ends(107, 4)
	for i, e := range got {
		if want := []int{27, 54, 81, 107}[i*4/107]; e != want {
			t.Fatalf("segment ends (P=107, S=4): stage %d ends at %d, want %d", i+1, e, want)
		}
	}
	// Every stage ends at or after itself, and the segments are contiguous
	// runs whose sizes differ by at most one.
	for p := 1; p <= 16; p++ {
		for segs := 1; segs <= 20; segs++ {
			got := ends(p, segs)
			var sizes []int
			for i, e := range got {
				if e < i+1 || e > p {
					t.Fatalf("P=%d S=%d: stage %d ends at %d", p, segs, i+1, e)
				}
				if i == 0 || got[i-1] != e {
					if i > 0 && got[i-1] != i {
						t.Fatalf("P=%d S=%d: ends %v are not contiguous segments", p, segs, got)
					}
					sizes = append(sizes, e-i)
				}
			}
			if len(sizes) != min(p, segs) || slices.Max(sizes)-slices.Min(sizes) > 1 {
				t.Fatalf("P=%d S=%d: segment sizes %v", p, segs, sizes)
			}
		}
	}
}

func TestClockVersionsNeverExceedCommitted(t *testing.T) {
	// The forward version needed by microbatch s must always have been
	// committed before s is processed sequentially (materialization safety).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := Clock{P: 1 + rng.Intn(20), N: 1 + rng.Intn(8)}
		for s := 0; s < 200; s++ {
			for stage1 := 1; stage1 <= c.P; stage1++ {
				v := c.FwdVersion(s, stage1)
				// Sequential sim has committed ⌊(s−1)/N⌋+1 versions after
				// processing microbatches 0..s−1 (commit after each full
				// minibatch); available = ⌊s/N⌋ counting version 0 pushes.
				available := s / c.N
				if v > available {
					return false
				}
				if v < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClockLastStageNearZeroDelay(t *testing.T) {
	c := Clock{P: 5, N: 4}
	// Last stage, last microbatch of a minibatch: delay exactly 1 update.
	s := 10*c.N + c.N - 1
	if got := fwdDelayUpdates(c, s, c.P); got != 1 {
		t.Fatalf("last-stage delay = %d updates, want 1", got)
	}
	// Backward version is stage independent and equals ⌊s/N⌋.
	if got := c.Minibatch(s); got != 10 {
		t.Fatalf("Minibatch = %d, want 10", got)
	}
}

func TestHogwildMeanDelayMonotone(t *testing.T) {
	// Earlier stages must have larger expected delays.
	h := Hogwild{TauMax: 20, MeanScale: 0.5}
	p := 10
	prev := math.Inf(1)
	for i1 := 1; i1 <= p; i1++ {
		m := h.Mean(i1, p)
		if m >= prev {
			t.Fatalf("mean delay must decrease with stage: stage %d has %g ≥ %g", i1, m, prev)
		}
		prev = m
	}
	if got := h.Mean(1, 10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("first-stage mean = %g, want 10", got)
	}
}

// TestHogwildDelayDraws pins the draw's contract: a pure function of its
// arguments, in [0, TauMax], allocation-free, and distributed as the
// floored, truncated exponential — whose mean is Σ_{d=1}^{TauMax} P(⌊X⌋ ≥ d)
// = Σ e^{−d/Mean}.
func TestHogwildDelayDraws(t *testing.T) {
	for _, h := range []Hogwild{{TauMax: 7, MeanScale: 0.5}, {TauMax: 24, MeanScale: 0.8}, {TauMax: 4, MeanScale: 0.5}} {
		for stage1 := 1; stage1 <= 5; stage1++ {
			for k := 0; k < 2000; k++ {
				d := h.Delay(11, k, stage1, 5)
				if d < 0 || d > h.TauMax {
					t.Fatalf("%+v stage %d minibatch %d: delay %d out of [0, %d]", h, stage1, k, d, h.TauMax)
				}
				if again := h.Delay(11, k, stage1, 5); again != d {
					t.Fatalf("%+v stage %d minibatch %d: drew %d, then %d", h, stage1, k, d, again)
				}
			}
		}
	}
	// The mean, at Figure 19's first stage (mean 19.2, TauMax 24): there the
	// truncation keeps the spread small enough that 2% is three standard
	// errors of a 10k-draw mean.
	const draws = 10000
	h := Hogwild{TauMax: 24, MeanScale: 0.8}
	sum := 0
	for k := 0; k < draws; k++ {
		sum += h.Delay(11, k, 1, 5)
	}
	want := 0.0
	for d := 1; d <= h.TauMax; d++ {
		want += math.Exp(-float64(d) / h.Mean(1, 5))
	}
	if got := float64(sum) / draws; math.Abs(got-want) > 0.02*want {
		t.Errorf("mean delay %.4f over %d draws, want %.4f ± 2%%", got, draws, want)
	}
	d := 0
	if allocs := testing.AllocsPerRun(100, func() { d += h.Delay(3, d, 2, 4) }); allocs != 0 {
		t.Fatalf("Delay allocates %g times per call", allocs)
	}
	// Distinct seeds, minibatches and stages draw independently: the
	// streams must not coincide.
	same := 0
	for k := 0; k < 1000; k++ {
		if h.Delay(1, k, 1, 4) == h.Delay(2, k, 1, 4) {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("seeds 1 and 2 drew the same delay for %d of 1000 minibatches", same)
	}
}

func TestVersionStorePushGet(t *testing.T) {
	p := nn.NewParam("w", 2)
	p.Data.SetFlat(0, 1)
	stages := [][]*nn.Param{{p}}
	vs := NewVersionStore(stages, 10)
	if vs.Latest(0) != 0 {
		t.Fatalf("latest = %d, want 0", vs.Latest(0))
	}
	for v := 1; v <= 5; v++ {
		p.Data.SetFlat(0, float64(v+1))
		vs.Push()
	}
	for v := 0; v <= 5; v++ {
		got := vs.Get(0, v)[0].FlatAt(0)
		if got != float64(v+1) {
			t.Fatalf("version %d = %g, want %d", v, got, v+1)
		}
	}
	// Snapshots are copies: mutating the live param must not change them.
	p.Data.SetFlat(0, 99)
	if vs.Get(0, 5)[0].FlatAt(0) == 99 {
		t.Fatal("snapshots must be deep copies")
	}
}

func TestVersionStorePruning(t *testing.T) {
	p := nn.NewParam("w", 1)
	vs := NewVersionStore([][]*nn.Param{{p}}, 3)
	for v := 1; v <= 10; v++ {
		p.Data.SetFlat(0, float64(v))
		vs.Push()
	}
	if vs.Latest(0) != 10 {
		t.Fatalf("latest = %d", vs.Latest(0))
	}
	// The ring holds versions 8..10; a request outside it panics, naming
	// the stage and the versions held, rather than substituting one.
	if got := vs.Get(0, 8)[0].FlatAt(0); got != 8 {
		t.Fatalf("oldest retained version = %g, want 8", got)
	}
	for _, v := range []int{0, 7, 11, 99} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "stage 0 ring holds versions 8..10") {
					t.Fatalf("Get(0, %d) = %v, want a panic naming the versions held", v, r)
				}
			}()
			vs.Get(0, v)
		}()
	}
	// The ring has wrapped three times over; History still runs oldest
	// to newest.
	base, snaps := vs.History(0)
	if base != 8 || len(snaps) != 3 {
		t.Fatalf("History = base %d, %d snapshots, want base 8, 3", base, len(snaps))
	}
	for k, snap := range snaps {
		if got := snap[0].FlatAt(0); got != float64(8+k) {
			t.Fatalf("History entry %d = %g, want version %d", k, got, 8+k)
		}
	}
}

// ringBuffers counts the distinct snapshot tensors a stage's ring has
// handed out through Get since the last reset of seen.
func ringBuffers(vs *VersionStore, stage int, seen map[*tensor.Tensor]bool) int {
	for v := vs.base[stage]; v <= vs.Latest(stage); v++ {
		for _, t := range vs.Get(stage, v) {
			seen[t] = true
		}
	}
	return len(seen)
}

// TestVersionStoreRecyclesKeepBuffers pins the ring's storage: over 100
// pushes each stage's Get hands out exactly its own keep buffers per
// parameter — every push past the first keep copies into the buffer it
// evicts — and every version still reads back the weights pushed as it.
func TestVersionStoreRecyclesKeepBuffers(t *testing.T) {
	a, b, c := nn.NewParam("a", 2), nn.NewParam("b", 3), nn.NewParam("c", 1)
	stages, keep := [][]*nn.Param{{a, b}, {c}}, []int{4, 1}
	vs := NewStageVersionStore(stages, keep)
	seen := []map[*tensor.Tensor]bool{{}, {}}
	for v := 1; v <= 100; v++ {
		for _, p := range []*nn.Param{a, b, c} {
			p.Data.SetFlat(0, float64(v))
		}
		vs.Push()
		for st := range seen {
			ringBuffers(vs, st, seen[st])
			for u := max(v-keep[st]+1, 0); u <= v; u++ {
				if got := vs.Get(st, u)[0].FlatAt(0); got != float64(u) {
					t.Fatalf("after %d pushes: stage %d version %d reads %g", v, st, u, got)
				}
			}
		}
	}
	for st, params := range stages {
		if got, want := len(seen[st]), keep[st]*len(params); got != want {
			t.Fatalf("stage %d handed out %d buffers over 100 pushes, want %d", st, got, want)
		}
	}
}

// TestVersionStoreRestoredRingConverges pins a restored ring of another
// length than its stage's keep: a shorter one grows by fresh buffers and a
// longer one evicts its extra versions, and either settles on exactly
// that stage's keep buffers holding its newest keep versions.
func TestVersionStoreRestoredRingConverges(t *testing.T) {
	keep := []int{3, 1}
	for st := range keep {
		for _, n := range []int{1, keep[st] + 3} {
			stages := [][]*nn.Param{{nn.NewParam("w0", 1)}, {nn.NewParam("w1", 1)}}
			p := stages[st][0]
			vs := NewStageVersionStore(stages, keep)
			snaps := make([][]*tensor.Tensor, n)
			for k := range snaps {
				snaps[k] = []*tensor.Tensor{tensor.New(1)}
				snaps[k][0].SetFlat(0, float64(20+k))
			}
			vs.RestoreStage(st, 20, snaps)
			if got := vs.Latest(st); got != 20+n-1 {
				t.Fatalf("stage %d, restored ring of %d: latest %d, want %d", st, n, got, 20+n-1)
			}
			seen := map[*tensor.Tensor]bool{}
			for v := 20 + n; v < 20+n+10; v++ {
				p.Data.SetFlat(0, float64(v))
				vs.PushStage(st)
				if v >= 20+n+keep[st] {
					ringBuffers(vs, st, seen)
				}
			}
			base, ring := vs.History(st)
			if len(ring) != keep[st] || base != 20+n+10-keep[st] {
				t.Fatalf("stage %d, restored ring of %d: after 10 pushes History holds %d from %d, want %d from %d",
					st, n, len(ring), base, keep[st], 20+n+10-keep[st])
			}
			for k, snap := range ring {
				if got := snap[0].FlatAt(0); got != float64(base+k) {
					t.Fatalf("stage %d, restored ring of %d: entry %d = %g, want %d", st, n, k, got, base+k)
				}
			}
			if len(seen) != keep[st] {
				t.Fatalf("stage %d, restored ring of %d: settled on %d buffers, want %d", st, n, len(seen), keep[st])
			}
		}
	}
}

// TestVersionStorePushRefusesALiveReader pins the recycling rule: a push
// that would overwrite the buffer a stage parameter still reads — as Data
// or as Bwd — panics, naming the stage, the version and the parameter,
// and leaves the ring as it was.
func TestVersionStorePushRefusesALiveReader(t *testing.T) {
	for _, field := range []string{"Data", "Bwd"} {
		master := nn.NewParam("blk0.fc.W", 2)
		vs := NewVersionStore([][]*nn.Param{{master}}, 2)
		vs.Push() // the ring is full: the next push recycles version 0
		oldest := vs.Get(0, 0)[0]
		if field == "Data" {
			live := master.Data
			master.Install(oldest)
			defer func() { master.Restore(live) }()
		} else {
			master.Bwd = oldest
		}
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "stage 0: blk0.fc.W[2] still reads version 0, which the push of version 2 overwrites") {
					t.Fatalf("%s on the oldest buffer: push recovered %v, want a panic naming it", field, r)
				}
			}()
			vs.Push()
		}()
		if vs.Latest(0) != 1 || vs.Get(0, 0)[0] != oldest {
			t.Fatalf("%s: the refused push changed the ring", field)
		}
	}
}

// --- cost-balanced partitioning ---

// bruteBottleneck finds the optimal bottleneck cost by enumerating every
// contiguous split of g groups into p non-empty stages.
func bruteBottleneck(costs []float64, p int) float64 {
	g := len(costs)
	best := math.Inf(1)
	// Choose p−1 cut positions in 1..g−1 via recursion.
	var rec func(start, stagesLeft int, worst float64)
	rec = func(start, stagesLeft int, worst float64) {
		if stagesLeft == 1 {
			sum := 0.0
			for _, c := range costs[start:] {
				sum += c
			}
			if m := math.Max(worst, sum); m < best {
				best = m
			}
			return
		}
		sum := 0.0
		// The stage must leave at least stagesLeft−1 groups for the rest.
		for end := start + 1; end <= g-(stagesLeft-1); end++ {
			sum += costs[end-1]
			rec(end, stagesLeft-1, math.Max(worst, sum))
		}
	}
	rec(0, p, 0)
	return best
}

func stageCostsOf(pt *Partition, costs []float64) []float64 { return pt.StageCosts(costs) }

func TestPartitionByCostMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		g := 2 + rng.Intn(9)
		p := 1 + rng.Intn(g)
		costs := make([]float64, g)
		for i := range costs {
			if rng.Intn(5) == 0 {
				costs[i] = 0 // exercise zero-cost groups
			} else {
				costs[i] = math.Floor(rng.Float64()*100) + 1
			}
		}
		pt, err := PartitionGroupsByCost(mkGroups(make([]int, g)...), costs, p)
		if err != nil {
			t.Fatal(err)
		}
		got := 0.0
		for _, c := range stageCostsOf(pt, costs) {
			if c > got {
				got = c
			}
		}
		want := bruteBottleneck(costs, p)
		if got != want {
			t.Fatalf("trial %d (g=%d p=%d costs=%v): DP bottleneck %g, brute force %g (stageOf=%v)",
				trial, g, p, costs, got, want, pt.StageOf)
		}
	}
}

func TestPartitionByCostEdgeCases(t *testing.T) {
	// Single group, single stage.
	pt, err := PartitionGroupsByCost(mkGroups(1), []float64{5}, 1)
	if err != nil || pt.StageOf[0] != 0 {
		t.Fatalf("single group: %v %v", pt, err)
	}
	// One stage swallows everything.
	pt, err = PartitionGroupsByCost(mkGroups(1, 1, 1), []float64{3, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pt.StageOf {
		if s != 0 {
			t.Fatalf("p=1 StageOf = %v", pt.StageOf)
		}
	}
	// P == groups: exactly one group per stage regardless of cost skew.
	pt, err = PartitionGroupsByCost(mkGroups(1, 1, 1, 1), []float64{100, 0, 0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range pt.StageOf {
		if s != i {
			t.Fatalf("p=g StageOf = %v", pt.StageOf)
		}
	}
	// All-zero costs still yield a valid all-stages-non-empty partition.
	pt, err = PartitionGroupsByCost(mkGroups(1, 1, 1, 1, 1), make([]float64, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, 3)
	prev := 0
	for _, s := range pt.StageOf {
		if s < prev {
			t.Fatalf("stages regress: %v", pt.StageOf)
		}
		prev = s
		seen[s]++
	}
	for s, n := range seen {
		if n == 0 {
			t.Fatalf("stage %d empty: %v", s, pt.StageOf)
		}
	}
}

func TestPartitionByCostErrors(t *testing.T) {
	gs := mkGroups(1, 1, 1)
	if _, err := PartitionGroupsByCost(gs, []float64{1, 2}, 2); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := PartitionGroupsByCost(gs, []float64{1, -1, 2}, 2); err == nil {
		t.Fatal("negative cost must fail")
	}
	if _, err := PartitionGroupsByCost(gs, []float64{1, math.NaN(), 2}, 2); err == nil {
		t.Fatal("NaN cost must fail")
	}
	if _, err := PartitionGroupsByCost(gs, []float64{1, 1, 1}, 4); err == nil {
		t.Fatal("p > groups must fail")
	}
	if _, err := PartitionGroupsByCost(gs, []float64{1, 1, 1}, 0); err == nil {
		t.Fatal("p = 0 must fail")
	}
	if _, err := PartitionGroupsByCost(nil, nil, 1); err == nil {
		t.Fatal("no groups must fail")
	}
}

// TestPartitionByCostDeterministicTies pins the tie-breaking rule: equal
// inputs always produce the identical partition, including cost vectors
// where many splits share the optimal bottleneck.
func TestPartitionByCostDeterministicTies(t *testing.T) {
	costs := []float64{1, 1, 1, 1, 1, 1} // every 2-2-2 ish split ties
	var first []int
	for trial := 0; trial < 20; trial++ {
		pt, err := PartitionGroupsByCost(mkGroups(1, 1, 1, 1, 1, 1), costs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]int(nil), pt.StageOf...)
			continue
		}
		for i := range first {
			if pt.StageOf[i] != first[i] {
				t.Fatalf("trial %d: StageOf = %v, first = %v", trial, pt.StageOf, first)
			}
		}
	}
	// The tied uniform case must still be perfectly balanced.
	pt, _ := PartitionGroupsByCost(mkGroups(1, 1, 1, 1, 1, 1), costs, 3)
	for _, c := range stageCostsOf(pt, costs) {
		if c != 2 {
			t.Fatalf("uniform tie not balanced: %v", stageCostsOf(pt, costs))
		}
	}
}

func TestPartitionByCostBeatsEvenOnSkewedCosts(t *testing.T) {
	// A transformer-like profile: a huge attention-core group between
	// cheap norm/bias groups. Even-by-count splits land the heavy group
	// with neighbours; cost balancing isolates it.
	costs := []float64{1, 1, 100, 1, 1, 1}
	gs := mkGroups(1, 1, 1, 1, 1, 1)
	even, err := PartitionGroups(gs, 3)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := PartitionGroupsByCost(gs, costs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ib, ie := Imbalance(bal.StageCosts(costs)), Imbalance(even.StageCosts(costs)); ib >= ie {
		t.Fatalf("cost partition imbalance %.3f not better than even %.3f", ib, ie)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{2, 2, 2}); got != 1 {
		t.Fatalf("balanced imbalance = %g, want 1", got)
	}
	if got := Imbalance([]float64{4, 1, 1}); got != 2 {
		t.Fatalf("skewed imbalance = %g, want 2", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 1 {
		t.Fatalf("zero-cost imbalance = %g, want 1", got)
	}
}
