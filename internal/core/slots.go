package core

import (
	"fmt"
	"math"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// host adapts the trainer to engine.Host (this file), engine.Committer
// (commit.go) and the replica-member surface (member.go) without
// exporting any of them on Trainer itself.
type host struct{ t *Trainer }

// Tracer implements trace.Carrier: engines, the replica layer and the
// commit executor discover the run's recorder (and which replica they are
// computing for) by type-asserting their host against it.
func (h host) Tracer() (*trace.Recorder, int) { return h.t.cfg.Trace, h.t.cfg.TraceReplica }

// Stages returns P.
func (h host) Stages() int { return h.t.clock.P }

// Recompute reports whether the chunk's chains make the Appendix D
// recompute climb: the path is configured and the epoch asynchronous.
func (h host) Recompute() bool { return h.t.async && h.t.segEnd1 != nil }

// MicroBase returns the global microbatch counter for the minibatch start.
func (h host) MicroBase() int { return h.t.micro }

// slotKind names the three slots of a microbatch chain at one stage.
type slotKind int

const (
	slotFwd slotKind = iota
	slotRecompute
	slotBwd
)

// install is the version rule: it points the stage's parameters at the
// weights slot (s, stage, kind) reads, and is the only code that does. In
// a synchronous epoch (GPipe, T3 warmup) every slot reads the live masters
// Restore left in place. Otherwise (Table 1, Appendix D):
//
//   - forward weights. A forward slot reads the snapshot delayed by τ_fwd,
//     version FwdVersion(s, stage). A recompute slot reads the version its
//     segment's delay 2(e−i)+1 reaches back to, recompVersion — T2-corrected
//     when T2 is on — and with the recompute path on so does the backward
//     slot, whose activations that climb produced; without it the backward
//     slot re-reads the forward version (other chains' slots may have
//     re-pointed the stage since this microbatch's forward ran).
//   - backward weights. PipeMare's backward reads the live master
//     (τ_bkwd = 0), or its T2-corrected copy; PipeDream's falls back to the
//     stashed forward snapshot (Bwd stays nil).
func (t *Trainer) install(s, stage int, kind slotKind) {
	if !t.async {
		return
	}
	lo := t.stageLo[stage]
	recomp := kind != slotFwd && t.segEnd1 != nil
	v, tauR := t.clock.FwdVersion(s, stage+1), 0.0
	if recomp {
		st1, e1 := stage+1, t.segEnd1[stage]
		v, tauR = t.recompVersion(s, st1, e1), float64(2*(e1-st1)+1)/float64(t.clock.N)
	}
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		pm.Data = snap[j]
		if recomp && t.delta != nil {
			// u_recomp = w_{t−τr} − (τ_fwd − τ_recomp)·δ.
			pm.Data = snap[j].Clone()
			tensor.Axpy(pm.Data, -(t.taus[lo+j] - tauR), t.delta[lo+j])
		}
	}
	if t.cfg.Method == PipeMare {
		bwd := t.masters
		if t.corrected != nil {
			bwd = t.corrected
		}
		for i := lo; i < t.stageHi[stage]; i++ {
			t.params[i].Bwd = bwd[i]
		}
	}
}

// recompVersion returns the number of updates committed at stage i
// (1-indexed) before the recompute slot of microbatch s for a segment
// ending at stage e1: the recompute of stage i runs 2(e−i)+1 slots before
// the gradient is applied.
func (t *Trainer) recompVersion(s, stage1, e1 int) int {
	num := s + 2*stage1 - 2*e1 - t.clock.N
	if num < 0 {
		return 0
	}
	return num/t.clock.N + 1
}

// Restore points the stage's parameters back at the live master weights
// and clears the backward decoupling.
func (h host) Restore(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Data = t.masters[i]
		t.params[i].Bwd = nil
	}
}

// BeginMicro opens microbatch s, acquiring an in-flight machine from the
// pool. Safe to call from any engine goroutine.
func (h host) BeginMicro(s int, mb []int) {
	t := h.t
	t.flowMu.Lock()
	var fl *flight
	if n := len(t.freeFlows); n > 0 {
		fl = t.freeFlows[n-1]
		t.freeFlows = t.freeFlows[:n-1]
	} else {
		fl = &flight{m: nn.NewMachine(t.prog.NumRegs)}
		// Slot machines allocate activations from their own tape arena,
		// which must match the model dtype. Read it from a master: a
		// scheduler worker's install may be swapping params[0].Data at
		// this moment, nothing ever swaps a master.
		if len(t.masters) > 0 {
			fl.m.Tape.SetDType(t.masters[0].DType())
		}
	}
	fl.mb = mb
	t.flows[s] = fl
	t.flowMu.Unlock()
}

// flight returns microbatch s's in-flight state.
func (h host) flight(s int) *flight {
	t := h.t
	t.flowMu.Lock()
	fl := t.flows[s]
	t.flowMu.Unlock()
	if fl == nil {
		panic(fmt.Sprintf("core: microbatch %d has no in-flight state (missing BeginMicro)", s))
	}
	return fl
}

// StageForward runs the stage's forward slot for microbatch s.
func (h host) StageForward(s, stage int) float64 {
	h.t.install(s, stage, slotFwd)
	return h.forward(s, stage)
}

// StageRecompute runs the stage's recompute slot: the forward segment
// again, on the recompute-delayed weights, regenerating the activations
// the backward pass consumes (Appendix D).
func (h host) StageRecompute(s, stage int) {
	h.t.install(s, stage, slotRecompute)
	h.forward(s, stage)
}

// forward runs the stage's forward segment: its op range on the
// microbatch's machine (stage 0 resets the machine and binds the samples,
// so a second climb restarts the forward pass).
func (h host) forward(s, stage int) float64 {
	t := h.t
	fl := h.flight(s)
	if stage == 0 {
		fl.m.ResetRun()
		t.task.BindMicro(fl.m, fl.mb)
	}
	t.prog.ForwardRange(fl.m, t.opLo[stage], t.opHi[stage])
	if stage == t.clock.P-1 {
		return fl.m.Loss
	}
	return 0
}

// StageBackward runs the stage's backward slot for microbatch s.
func (h host) StageBackward(s, stage int) {
	t := h.t
	t.install(s, stage, slotBwd)
	t.prog.BackwardRange(h.flight(s).m, t.opLo[stage], t.opHi[stage])
}

// EndMicro closes microbatch s and recycles its machine.
func (h host) EndMicro(s int) {
	t := h.t
	t.flowMu.Lock()
	if fl := t.flows[s]; fl != nil {
		delete(t.flows, s)
		fl.mb = nil
		t.freeFlows = append(t.freeFlows, fl)
	}
	t.flowMu.Unlock()
}

// BadLoss reports a non-finite or capped loss.
func (h host) BadLoss(loss float64) bool {
	return math.IsNaN(loss) || loss > h.t.cfg.LossCap
}
