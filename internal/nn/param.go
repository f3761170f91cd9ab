// Package nn is a minimal layer-level neural-network library built for the
// PipeMare reproduction. Its defining feature is weight decoupling: every
// Param carries separate forward weights (Data) and backward weights (Bwd),
// so a pipeline simulator can compute the paper's two-argument gradient
// ∇f_t(u_fwd, u_bkwd) — backpropagation where the forward pass and the
// input-gradient computation see different weight versions — with real
// backprop rather than an approximation.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipemare/internal/tensor"
)

// Param is a trainable tensor with decoupled forward/backward values.
type Param struct {
	Name string
	// Data holds the weights used in the forward pass.
	Data *tensor.Tensor
	// Bwd, when non-nil, holds the weights used to compute input gradients
	// in the backward pass (u_bkwd in the paper). When nil, backward uses
	// Data, i.e. synchronous execution.
	Bwd *tensor.Tensor
	// Grad accumulates the parameter gradient.
	//
	// Accumulation contract: a layer's Backward adds its whole per-call
	// contribution with exactly ONE floating-point add per element: the
	// contribution is summed from +0 apart from the accumulator, then
	// folded in. The Linear and Conv2d weights fold in registers, in the
	// GEMM's epilogue (tensor.MatMulT1AddInto), and their biases column
	// by column (tensor.FoldColSums); a scatter (the embeddings, GroupNorm) sums
	// into a tape temporary folded with one AddInto. Because each
	// microbatch therefore lands as one add of a value that does not
	// depend on the accumulator, a gradient computed into a zeroed buffer
	// and folded in later is bit-identical to direct accumulation — which
	// is what lets the replica layer (internal/replica) all-reduce
	// per-microbatch gradients across data-parallel replicas without
	// perturbing training curves.
	Grad *tensor.Tensor

	// snap is the immutable weight snapshot Install last pointed Data at.
	// While panelOf is non-nil, panel is Wᵀ packed from it for
	// Linear.Forward; it lives until Restore (the end of a stream) or
	// until the ring recycles panelOf (ReleasePanel), whichever is first.
	snap, panelOf *tensor.Tensor
	panel         tensor.Panel
}

// NewParam returns a zero-initialized parameter of the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Data: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// BwdData returns the weights to use for input-gradient computation.
func (p *Param) BwdData() *tensor.Tensor {
	if p.Bwd != nil {
		return p.Bwd
	}
	return p.Data
}

// Install points Data at w, an immutable weight snapshot (an entry of a
// version ring, which nothing writes while a slot may read it), and marks
// it as one: while Data is still w, a Linear packs Wᵀ on its first forward
// and reuses the panel (forwardPanel). Data set any other way — a master,
// a T2-corrected recompute buffer — is read as it stands, product by
// product.
func (p *Param) Install(w *tensor.Tensor) { p.Data, p.snap = w, w }

// Restore points Data back at master, clears the backward decoupling and
// returns the panel, if any, to the panel pool.
func (p *Param) Restore(master *tensor.Tensor) {
	p.Data, p.Bwd, p.snap = master, nil, nil
	p.ReleasePanel(p.panelOf)
}

// ReleasePanel returns the panel packed from w, if p holds one, to the
// panel pool. A version ring calls it on the snapshot it is about to
// overwrite with a newer version, so an Install of the recycled tensor
// packs afresh instead of reading the old version's panel.
func (p *Param) ReleasePanel(w *tensor.Tensor) {
	if w != nil && p.panelOf == w {
		p.panel.Release()
		p.panelOf = nil
	}
}

// forwardPanel returns the Wᵀ panel of Data when Data is the snapshot
// Install marked, packing it on the first forward that reads that
// snapshot, and nil otherwise (the product then packs per call). Under
// the race detector every reuse re-packs and compares (checkPanel).
func (p *Param) forwardPanel() *tensor.Panel {
	if p.Data != p.snap {
		return nil
	}
	if p.panelOf == p.Data {
		checkPanel(p)
		return &p.panel
	}
	p.ReleasePanel(p.panelOf)
	p.panel, p.panelOf = tensor.PackT2(p.Data), p.Data
	if onPack != nil {
		onPack(p)
	}
	return &p.panel
}

// onPack, when set, is called with the param of every panel forwardPanel
// packs (a test counts them).
var onPack func(*Param)

// CastTo converts the parameter's weights, backward weights and gradient
// accumulator to dt in place (no-op when already that dtype). Casting
// float64→float32 rounds each element once, so a float32 model is the
// rounded image of the float64 initialization — the rng draw sequence is
// shared across dtypes.
func (p *Param) CastTo(dt tensor.DType) {
	p.Data.CastTo(dt)
	p.Grad.CastTo(dt)
	if p.Bwd != nil {
		p.Bwd.CastTo(dt)
	}
}

// Size returns the number of scalar elements in the parameter.
func (p *Param) Size() int { return p.Data.Size() }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// String identifies the parameter in diagnostics.
func (p *Param) String() string { return fmt.Sprintf("%s%v", p.Name, p.Data.Shape) }

// InitXavier fills p.Data with Xavier/Glorot-uniform values for the given
// fan-in and fan-out.
func (p *Param) InitXavier(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i, n := 0, p.Data.Size(); i < n; i++ {
		p.Data.SetFlat(i, (2*float64(rng.Float64())-1)*limit)
	}
}

// InitHe fills p.Data with He-normal values for the given fan-in,
// appropriate before ReLU nonlinearities.
func (p *Param) InitHe(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i, n := 0, p.Data.Size(); i < n; i++ {
		p.Data.SetFlat(i, rng.NormFloat64()*std)
	}
}

// InitNormal fills p.Data with N(0, std²) values.
func (p *Param) InitNormal(rng *rand.Rand, std float64) {
	for i, n := 0, p.Data.Size(); i < n; i++ {
		p.Data.SetFlat(i, rng.NormFloat64()*std)
	}
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ParamNorm returns the global L2 norm of all parameter values (forward
// weights), used for the divergence diagnostics of Figure 7.
func ParamNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		s += p.Data.SumSq()
	}
	return math.Sqrt(s)
}

// TotalSize returns the total number of scalar weights.
func TotalSize(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}
