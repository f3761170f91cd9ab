package core

import (
	"fmt"
	"math"

	"pipemare/internal/nn"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// host adapts the trainer to engine.Host (this file) and the replica
// surface — the commit phases (commit.go) and the rest of replica.Leader
// (member.go) — without exporting any of them on Trainer itself.
type host struct{ t *Trainer }

// Tracer implements trace.Carrier: engines and the replica layer discover
// the run's recorder (and which replica they are computing for) by
// type-asserting their host against it.
func (h host) Tracer() (*trace.Recorder, int) { return h.t.cfg.Trace, h.t.cfg.TraceReplica }

// Stages returns P.
func (h host) Stages() int { return h.t.clock.P }

// Recompute reports whether the chunk's chains make the Appendix D
// recompute climb: the path is configured and the epoch asynchronous.
func (h host) Recompute() bool { return h.t.async && h.t.clock.Segments > 0 }

// MicroBase returns the global microbatch counter at the start of the
// stream: N per committed step.
func (h host) MicroBase() int { return h.t.steps() * h.t.clock.N }

// slotKind names the three slots of a microbatch chain at one stage.
type slotKind int

const (
	slotFwd slotKind = iota
	slotRecompute
	slotBwd
)

// install points the stage's parameters at the weights slot (s, stage,
// kind) reads, and is the only code that does; the clock names the
// versions. It is also the only code that points a parameter at a ring
// snapshot, so it marks each as one (nn.Param.Install): a Linear packs a
// marked snapshot's Wᵀ once for all the slots that read it. In a
// synchronous epoch (GPipe, T3 warmup) every slot reads the live masters
// Restore left in place. Otherwise:
//
//   - forward weights. A forward slot reads FwdVersion. A recompute slot
//     reads RecompVersion, T2-corrected when T2 is on, and with the
//     recompute path on so does the backward slot, whose activations that
//     climb produced; without it the backward slot re-reads the forward
//     version (other chains' slots may have re-pointed the stage since
//     this microbatch's forward ran).
//   - backward weights. PipeMare's backward reads the live master
//     (τ_bkwd = 0), or its T2-corrected copy; PipeDream's falls back to the
//     stashed forward snapshot (Bwd stays nil).
func (t *Trainer) install(s, stage int, kind slotKind) {
	if !t.async {
		return
	}
	lo := t.stageLo[stage]
	recomp := kind != slotFwd && t.clock.Segments > 0
	v, tauR := t.clock.FwdVersion(s, stage+1), 0.0
	if recomp {
		v, tauR = t.clock.RecompVersion(s, stage+1)
	}
	snap := t.store.Get(stage, v)
	for j, pm := range t.part.Stages[stage] {
		if recomp && t.delta != nil {
			// u_recomp = w_{t−τr} − (τ_fwd − τ_recomp)·δ, in the
			// parameter's recompute buffer.
			u := t.recomp[lo+j]
			u.CopyFrom(snap[j])
			tensor.Axpy(u, -(t.taus[lo+j] - tauR), t.delta[lo+j])
			pm.Data = u
		} else {
			pm.Install(snap[j])
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

// Restore points the stage's parameters back at the live master weights,
// clears the backward decoupling and releases the Wᵀ panels the stage's
// forwards packed, so no panel outlives the stream.
func (h host) Restore(stage int) {
	t := h.t
	for i := t.stageLo[stage]; i < t.stageHi[stage]; i++ {
		t.params[i].Restore(t.masters[i])
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
	fl.s, fl.mb = s, mb
	t.flows[h.slot(s)] = fl
	t.flowMu.Unlock()
}

// slot returns microbatch s's entry in the in-flight table: s mod N. An
// engine keeps at most min(P, N) consecutive microbatches in flight, so
// no two of them share an entry. The slot needs no read of the version
// store.
func (h host) slot(s int) int { return s % h.t.clock.N }

// flight returns microbatch s's in-flight state, without taking flowMu:
// the engine orders every slot of s after BeginMicro(s) and before
// EndMicro(s), and no other microbatch in flight shares its entry.
func (h host) flight(s int) *flight {
	fl := h.t.flows[h.slot(s)]
	if fl == nil || fl.s != s {
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
	if fl := t.flows[h.slot(s)]; fl != nil {
		t.flows[h.slot(s)] = nil
		fl.mb = nil
		t.freeFlows = append(t.freeFlows, fl)
	}
	t.flowMu.Unlock()
}

// BadLoss reports a non-finite or capped loss.
func (h host) BadLoss(loss float64) bool {
	return math.IsNaN(loss) || loss > h.t.cfg.LossCap
}
