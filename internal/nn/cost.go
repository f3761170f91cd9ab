package nn

import "time"

// This file implements the per-op cost model the cost-balanced stage
// partitioner consumes (pipeline.PartitionGroupsByCost). Two estimators
// exist: an analytic one — every layer that knows its own dimensions
// reports FLOP/byte counts per activation row, summed per weight group by
// Program.GroupCosts — and a measured one, Program.MeasureGroupCosts,
// which times one real forward+backward pass per op and attributes the
// wall time to the op's group. Only *relative* group costs matter for
// partitioning, so the analytic model normalizes everything to one
// activation row and ignores constant factors shared by all ops.

// Cost is an analytic estimate of one op's compute (floating-point
// operations) and memory traffic (bytes moved), per activation row.
type Cost struct {
	FLOPs float64
	Bytes float64
}

// Weight collapses a cost estimate to the single scalar the partition DP
// balances. Bytes are scaled by the approximate FLOPs-per-byte balance of
// the dense kernels, so a bandwidth-bound op (embedding gather) and a
// compute-bound op (matmul) land on a comparable axis.
func (c Cost) Weight() float64 { return c.FLOPs + float64(c.Bytes/4) }

// add folds another estimate in.
func (c *Cost) add(o Cost) { c.FLOPs += o.FLOPs; c.Bytes += o.Bytes }

// Coster is implemented by layers (and weightless cores) that can estimate
// their per-row cost from their static dimensions. Ops whose layer does
// not implement Coster fall back to glueCost — elementwise glue such as
// activations and reshapes, which is negligible next to any projection.
type Coster interface {
	EstimateCost() Cost
}

// elemBytes returns the byte size of a parameter's element type, so the
// analytic byte estimates track the model dtype (3 matrices of float32
// move half the bytes of their float64 twins).
func elemBytes(p *Param) float64 { return float64(p.Data.DType().Size()) }

// glueCost is the fallback per-row estimate for dimensionless elementwise
// ops (ReLU, GELU, pooling, residual adds, the loss): a handful of FLOPs
// and two row reads. It only needs to be small relative to real layers.
var glueCost = Cost{FLOPs: 8, Bytes: 16}

// EstimateCost of a Linear covers y = x·Wᵀ (+b) forward and the dx/dW
// matmuls backward: 3 GEMMs of 2·in·out FLOPs per row, streaming the
// weight matrix each time.
func (l *Linear) EstimateCost() Cost {
	out := float64(l.W.Data.Shape[0])
	in := float64(l.W.Data.Shape[1])
	es := elemBytes(l.W)
	c := Cost{FLOPs: float64(6 * in * out), Bytes: 3 * es * in * out}
	if l.B != nil {
		c.FLOPs += float64(2 * out)
	}
	return c
}

// EstimateCost of a Conv2d is per output pixel — the spatial extent is a
// property of the data, unknown at construction. Within a stack of
// equal-stride convs (and the per-pixel GroupNorms between them) the
// shared H·W factor cancels, so the heavy groups of a conv net are
// ranked correctly; against per-row ops (the Linear head after pooling)
// the conv side is *underestimated* by the spatial extent. Conv-heavy
// programs that need exact balance should use the profile partition
// mode, which measures real wall time.
func (c *Conv2d) EstimateCost() Cost {
	k := float64(c.W.Data.Size())
	es := elemBytes(c.W)
	return Cost{FLOPs: 6 * k, Bytes: 3 * es * k}
}

// EstimateCost of a LayerNorm covers the mean/variance reductions, the
// normalization and the dγ/dβ/dx backward over one row of width d.
func (ln *LayerNorm) EstimateCost() Cost {
	d := float64(ln.Gain.Data.Shape[0])
	return Cost{FLOPs: 24 * d, Bytes: 6 * elemBytes(ln.Gain) * d}
}

// EstimateCost of a GroupNorm mirrors LayerNorm per pixel over c channels.
func (gn *GroupNorm) EstimateCost() Cost {
	c := float64(gn.Gain.Data.Shape[0])
	return Cost{FLOPs: 24 * c, Bytes: 6 * elemBytes(gn.Gain) * c}
}

// EstimateCost of an Embedding is one table-row gather (bandwidth) plus
// the scatter-add backward.
func (e *Embedding) EstimateCost() Cost {
	d := float64(e.W.Data.Shape[1])
	return Cost{FLOPs: d, Bytes: 3 * elemBytes(e.W) * d}
}

// EstimateCost of a PositionalEncoding is one elementwise add per row and
// the pass-through/accumulate backward.
func (p *PositionalEncoding) EstimateCost() Cost {
	d := float64(p.W.Data.Shape[1])
	return Cost{FLOPs: 3 * d, Bytes: 5 * elemBytes(p.W) * d}
}

// EstimateCost of an AttnCore is per query row: the QKᵀ and probs·V GEMMs
// forward, their three counterparts backward, and the softmax over KLen
// scores per head.
func (a *AttnCore) EstimateCost() Cost {
	k := float64(a.KLen)
	d := float64(a.D)
	es := float64(a.ElemBytes)
	if es == 0 {
		es = 8
	}
	return Cost{
		FLOPs: float64(12*k*d) + float64(10*k*float64(a.Heads)),
		Bytes: 6 * es * k * d,
	}
}

// opCost estimates one op's per-row cost: the layer/core estimate when it
// has one, glue otherwise.
func opCost(op Op) Cost {
	switch o := op.(type) {
	case *ApplyOp:
		if c, ok := o.L.(Coster); ok {
			return c.EstimateCost()
		}
	case *AttnCoreOp:
		return o.Core.EstimateCost()
	}
	return glueCost
}

// GroupCosts returns the analytic per-weight-group cost of the program:
// each op's estimate accumulated onto the group it belongs to. nGroups
// must cover every index in GroupOf. The result feeds
// pipeline.PartitionGroupsByCost; only the relative magnitudes matter.
func (pr *Program) GroupCosts(nGroups int) []Cost {
	costs := make([]Cost, nGroups)
	for i, op := range pr.Ops {
		costs[pr.GroupOf[i]].add(opCost(op))
	}
	return costs
}

// MeasureGroupCosts runs one full forward and backward pass on m, timing
// every op individually and accumulating the wall time (in seconds) onto
// the op's weight group in costs (which must have room for every group
// index). The caller prepares the machine — reset, samples and labels
// bound — exactly as for a training microbatch, and owns cleanup: the
// backward half accumulates real parameter gradients, which must be
// zeroed before training starts.
func (pr *Program) MeasureGroupCosts(m *Machine, costs []float64) {
	for i, op := range pr.Ops {
		start := time.Now()
		op.Forward(m)
		costs[pr.GroupOf[i]] += time.Since(start).Seconds()
	}
	for i := len(pr.Ops) - 1; i >= 0; i-- {
		start := time.Now()
		pr.Ops[i].Backward(m)
		costs[pr.GroupOf[i]] += time.Since(start).Seconds()
	}
}
