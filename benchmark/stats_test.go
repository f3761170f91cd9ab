package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{2, 50}, {19, 50}, {20, 50}, {22, 50},
		{30, 66}, // 10.2 beyond p66, 7.5 beyond p75
		{40, 75},
		{99, 75}, // 9.9 beyond p90
		{100, 90},
		{199, 90},
		{200, 95},
		{240, 95}, // 12 beyond p95, 2.4 beyond p99
		{1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSortedAtInterpolates(t *testing.T) {
	s := sortedCopy([]float64{4, 1, 3, 2})
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {2.0 / 3, 3}} {
		if got := s.at(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("at(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// The expected values are Python's:
//
//	q = statistics.quantiles(v, n=4); (q[2]-q[0])/q[1]
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 9.5}, 0.24444444444444444},
		{[]float64{3, 1}, 1.5}, // two values: the quartiles extrapolate
		{[]float64{5, 1, 9}, 1.6},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.vals); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestEpochsToTarget(t *testing.T) {
	for _, c := range []struct {
		name   string
		prev   float64
		losses []float64
		target float64
		want   float64
		ok     bool
	}{
		{"crossing halfway through the third epoch", 3, []float64{2.5, 2.0, 1.0}, 1.5, 2.5, true},
		{"exactly on an epoch's loss", 3, []float64{2, 1}, 2, 1, true},
		{"first epoch, a quarter in", 4, []float64{0}, 3, 0.25, true},
		{"already under the target counts one whole epoch", 1, []float64{0.9}, 2, 1, true},
		{"an infinite target is reached by the first epoch", 3, []float64{2.5, 2}, math.Inf(1), 1, true},
		{"never reached", 3, []float64{2.5, 2.4}, 1, 0, false},
		{"a dip after a rise interpolates from the epoch before", 3, []float64{2, 2.6, 1.6}, 1.8, 2.8, true},
	} {
		got, ok := epochsToTarget(c.prev, c.losses, c.target)
		if ok != c.ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "run", parent: -1, start: ms(0), end: ms(100)},
		{name: "a", parent: 0, start: ms(10), end: ms(30)},
		{name: "b", parent: 0, start: ms(20), end: ms(50)}, // overlaps a: covered once
		{name: "c", parent: 0, start: ms(70), end: ms(80)},
		{name: "a.1", parent: 1, start: ms(12), end: ms(17)},   // a grandchild is its parent's business only
		{name: "late", parent: 0, start: ms(95), end: ms(120)}, // clipped to the parent's interval
	}
	want := []time.Duration{ms(100 - 40 - 10 - 5), ms(15), ms(30), ms(10), ms(5), ms(25)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestSpanRecorderNestsAndTotals(t *testing.T) {
	r := newSpanRecorder()
	r.workload = "w"
	r.time("outer", func() {
		r.time("inner", func() { time.Sleep(2 * time.Millisecond) })
		r.time("inner", func() {})
	})
	r.time("sibling", func() {})
	wantParents := []int{-1, 0, 0, -1}
	for i, p := range wantParents {
		if r.spans[i].parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", i, r.spans[i].name, r.spans[i].parent, p)
		}
		if r.spans[i].end < r.spans[i].start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
	totals := r.totals()
	if len(totals) != 3 || totals[1].Name != "inner" || totals[1].Count != 2 || totals[1].Workload != "w" {
		t.Fatalf("totals = %+v", totals)
	}
	if outer, inner := totals[0], totals[1]; math.Abs(outer.SelfS-(outer.TotalS-inner.TotalS)) > 1e-9 {
		t.Errorf("outer self %v, want total %v minus children %v", outer.SelfS, outer.TotalS, inner.TotalS)
	}
}

func TestParseStolenReadsTheStealColumn(t *testing.T) {
	stat := "cpu  7147545 0 1017610 7154476 20472 0 123225 1831675 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	if got := parseStolen([]byte(stat)); got != 18316.75 {
		t.Errorf("parseStolen = %v, want 18316.75", got)
	}
	for _, bad := range []string{"", "cpu 1 2 3 4 5 6 7\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu a b c d e f g h i\n"} {
		if got := parseStolen([]byte(bad)); got != 0 {
			t.Errorf("parseStolen(%q) = %v, want 0", bad, got)
		}
	}
}

func TestOwnTakesTheStolenShareOut(t *testing.T) {
	for _, c := range []struct {
		name string
		s    stint
		want float64
	}{
		// With stolenCost 1, one busy thread would lose exactly the stolen
		// second and two parallel ones half of it each.
		{"one busy thread", stint{Wall: 2, CPU: 1, Stolen: 1}, 2 * 1 / (1 + stolenCost)},
		{"two parallel threads", stint{Wall: 2, CPU: 3, Stolen: 1}, 2 * 3 / (3 + stolenCost)},
		{"nothing stolen", stint{Wall: 2, CPU: 3}, 2},
		{"nothing reported", stint{Wall: 2}, 2},
	} {
		if got := c.s.own(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: own = %v, want %v", c.name, got, c.want)
		}
		if got := c.s.own(); got > c.s.Wall {
			t.Errorf("%s: own = %v exceeds wall %v", c.name, got, c.s.Wall)
		}
	}
}
