package main

import (
	"math"
	"sort"
)

// median returns the middle of vals (mean of the two middles for an even
// count); 0 for none. vals is not modified.
func median(vals []float64) float64 {
	return sortedCopy(vals).at(0.5)
}

// sorted is an ascending sample; at interpolates linearly between order
// statistics, position q·(n−1).
type sorted []float64

func sortedCopy(vals []float64) sorted {
	s := append(sorted(nil), vals...)
	sort.Float64s(s)
	return s
}

func (s sorted) at(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 66, 75, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be more than one or two outliers.
const minBeyond = 10

// tailPercentile picks the highest ladder percentile that still has at
// least minBeyond of the n samples beyond it; below 20 samples no tail
// qualifies and the median stands in.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if int(float64(n)*(100-p)/100) >= minBeyond {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives — the spread the driver computes.
// It needs two values; fewer report 0.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vals)
	quartile := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := quartile(2)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// epochsToTarget returns how many timed epochs a run needed for its train
// loss to fall to target: whole epochs before the crossing plus the
// linearly interpolated share of the crossing epoch, so a curve that dips
// under the target a little earlier reads a little lower instead of
// jumping by a whole epoch. prev is the loss before the first timed epoch
// (the warm-up epoch's). ok is false when the target is never reached.
func epochsToTarget(prev float64, losses []float64, target float64) (epochs float64, ok bool) {
	for i, l := range losses {
		if l <= target {
			frac := (prev - target) / (prev - l)
			if !(frac > 0 && frac <= 1) { // already under target, flat step, or an infinite target
				frac = 1
			}
			return float64(i) + frac, true
		}
		prev = l
	}
	return 0, false
}
