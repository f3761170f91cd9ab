package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipemare/internal/nn"
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

func TestClockSlotDelayMatchesTable1(t *testing.T) {
	// The realized slot gap T_b − T_f must equal 2(P−i)+1 by construction;
	// verify via the version functions instead: in steady state, the mean
	// realized delay in updates over a minibatch's microbatches equals
	// (2(P−i)+N)/N, i.e. the paper's (2(P−i)+1)/N up to the ≤1-minibatch
	// accumulation offset, and the *last* microbatch's delay is exactly
	// ⌈(2(P−i)+1)/N⌉.
	c := Clock{P: 6, N: 4}
	for stage1 := 1; stage1 <= c.P; stage1++ {
		m := 2 * (c.P - stage1)
		// Steady state: pick a late minibatch.
		t0 := 50
		sum := 0
		for j := 0; j < c.N; j++ {
			s := t0*c.N + j
			sum += c.FwdDelayUpdates(s, stage1)
		}
		wantMean := float64(m+c.N) / float64(c.N)
		if got := float64(sum) / float64(c.N); math.Abs(got-wantMean) > 1e-12 {
			t.Errorf("stage %d: mean delay %g updates, want %g", stage1, got, wantMean)
		}
		// Last microbatch of the minibatch: delay ⌈(m+1)/N⌉.
		s := t0*c.N + c.N - 1
		want := (m + 1 + c.N - 1) / c.N
		if got := c.FwdDelayUpdates(s, stage1); got != want {
			t.Errorf("stage %d: last-microbatch delay %d, want %d", stage1, got, want)
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
	if got := c.FwdDelayUpdates(s, c.P); got != 1 {
		t.Fatalf("last-stage delay = %d updates, want 1", got)
	}
	// Backward version is stage independent and equals ⌊s/N⌋.
	if got := c.BwdVersion(s); got != 10 {
		t.Fatalf("BwdVersion = %d, want 10", got)
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
	// Requests below the window clamp to the oldest retained version (8).
	if got := vs.Get(0, 0)[0].FlatAt(0); got != 8 {
		t.Fatalf("clamped old version = %g, want 8", got)
	}
	// Requests beyond the newest clamp to the latest.
	if got := vs.Get(0, 99)[0].FlatAt(0); got != 10 {
		t.Fatalf("clamped new version = %g, want 10", got)
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
