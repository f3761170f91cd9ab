package trace

import (
	"fmt"
	"io"
	"time"
)

// Report reduces a recorded trace to the occupancy numbers the paper's
// schedule arguments are about: where worker time went (compute vs
// commit vs collectives vs bubbles) and how close the run came to the
// cost model's theoretical best.
type Report struct {
	WallNs int64 // span extent across all tracks (control spans included)

	ComputeNs    int64 // Σ fwd+bwd+recompute span durations
	CommitNs     int64 // Σ commit:* span durations
	CollectiveNs int64 // Σ reduce/scatter/gather span durations
	WireNs       int64 // Σ wire-track span durations
	ControlNs    int64 // Σ control-track span durations: EvalNs + CkptNs + handoffs
	EvalNs       int64 // Σ eval span durations (the per-epoch test metric)
	CkptNs       int64 // Σ checkpoint:write span durations
	BytesMoved   int64 // Σ bytes over collective + wire spans

	WorkerTracks int // tracks that executed at least one compute span
	Replicas     int // distinct replicas among those tracks

	StageBusyNs []int64 // per-stage compute time, indexed by stage

	// BubbleFraction is the share of aggregate worker capacity
	// (WorkerTracks × WallNs) not spent computing; OverlapEfficiency is
	// its complement — the realized fraction of perfect overlap.
	BubbleFraction    float64
	OverlapEfficiency float64

	// IdealNs is the cost model's lower bound on wall-clock for the
	// measured compute volume: no run can finish faster than its total
	// work spread over every worker, nor faster than the bottleneck
	// stage's serial work on one replica (max cost share from nn.Cost).
	// MFU is IdealNs / WallNs — 1.0 means the schedule extracted
	// everything the model says the hardware allows.
	IdealNs int64
	MFU     float64

	// Faults observed as instants: heartbeats consumed, evictions,
	// replays, checkpoint writes/restores. Retries is never incremented
	// (the wire resends nothing); the benchmark still reads it.
	Retries      int
	Heartbeats   int
	Evictions    int
	Replays      int
	CkptWrites   int
	CkptRestores int

	DroppedEvents int
}

// BuildReport derives a Report from the recorder. stageCosts is the
// per-stage cost vector from the nn.Cost model (Trainer.StageCosts);
// pass nil to skip the bottleneck bound (IdealNs then assumes perfect
// balance). Same quiescence requirement as WriteChrome. A nil recorder
// yields a zero report.
func BuildReport(r *Recorder, stageCosts []float64) Report {
	var rep Report
	var minTs, maxTs int64
	first := true
	replicas := map[int]bool{}

	extend := func(ev Event) {
		if first || ev.Ts < minTs {
			minTs = ev.Ts
		}
		if end := ev.Ts + ev.Dur; first || end > maxTs {
			maxTs = end
		}
		first = false
	}
	for _, t := range r.Tracks() {
		rep.DroppedEvents += t.DroppedEvents()
		if t.Tid == TidControl {
			// Control spans (eval, checkpoint writes, handoffs) run on the
			// trainer's goroutine between minibatches: they are wall-clock
			// the report must account for, but never worker capacity.
			for _, ev := range t.Events() {
				rep.countInstant(ev)
				if ev.Ph == 'i' {
					continue
				}
				extend(ev)
				rep.ControlNs += ev.Dur
				switch ev.Name {
				case NameEval:
					rep.EvalNs += ev.Dur
				case NameCkptWrite:
					rep.CkptNs += ev.Dur
				}
			}
			continue
		}
		hasCompute := false
		for _, ev := range t.Events() {
			if ev.Ph == 'i' {
				rep.countInstant(ev)
				continue
			}
			extend(ev)
			switch {
			case ev.Name == NameFwd || ev.Name == NameBwd || ev.Name == NameRecompute:
				hasCompute = true
				rep.ComputeNs += ev.Dur
				if ev.Stage >= 0 {
					for len(rep.StageBusyNs) <= ev.Stage {
						rep.StageBusyNs = append(rep.StageBusyNs, 0)
					}
					rep.StageBusyNs[ev.Stage] += ev.Dur
				}
			case t.Tid == TidWire:
				rep.WireNs += ev.Dur
				rep.BytesMoved += ev.Bytes
			case ev.Name == NameReduce || ev.Name == NameScatter || ev.Name == NameGather:
				rep.CollectiveNs += ev.Dur
				rep.BytesMoved += ev.Bytes
			default: // commit:* and anything commit-like on a compute track
				rep.CommitNs += ev.Dur
			}
		}
		if hasCompute {
			rep.WorkerTracks++
			replicas[t.Pid] = true
		}
	}
	if !first {
		rep.WallNs = maxTs - minTs
	}
	rep.Replicas = len(replicas)

	if rep.WallNs > 0 && rep.WorkerTracks > 0 {
		capacity := float64(rep.WorkerTracks) * float64(rep.WallNs)
		rep.OverlapEfficiency = float64(rep.ComputeNs) / capacity
		rep.BubbleFraction = 1 - rep.OverlapEfficiency

		ideal := float64(rep.ComputeNs) / float64(rep.WorkerTracks)
		if len(stageCosts) > 0 && rep.Replicas > 0 {
			sum := 0.0
			maxc := 0.0
			for _, c := range stageCosts {
				sum += c
				if c > maxc {
					maxc = c
				}
			}
			if sum > 0 {
				bottleneck := float64(rep.ComputeNs) / float64(rep.Replicas) * (maxc / sum)
				if bottleneck > ideal {
					ideal = bottleneck
				}
			}
		}
		rep.IdealNs = int64(ideal)
		rep.MFU = ideal / float64(rep.WallNs)
	}
	return rep
}

// countInstant tallies fault-class events; checkpoint writes are spans
// (they have a duration) but count here too.
func (rep *Report) countInstant(ev Event) {
	switch ev.Name {
	case NameHeartbeat:
		rep.Heartbeats++
	case NameEvict:
		rep.Evictions++
	case NameReplay:
		rep.Replays++
	case NameCkptWrite:
		rep.CkptWrites++
	case NameCkptRestore:
		rep.CkptRestores++
	}
}

// Format writes the human-readable report. measuredWallNs, when > 0, is
// an externally clocked wall time to reconcile the trace against (the
// bench passes its epoch timer); the accounting line shows how much of
// it the trace explains.
func (rep Report) Format(w io.Writer, measuredWallNs int64) {
	d := func(ns int64) time.Duration { return time.Duration(ns) }
	fmt.Fprintf(w, "trace report: wall %v over %d worker track(s), %d replica(s)\n",
		d(rep.WallNs), rep.WorkerTracks, rep.Replicas)
	fmt.Fprintf(w, "  compute %v  commit %v  collectives %v  wire %v  control %v  (%d bytes moved)\n",
		d(rep.ComputeNs), d(rep.CommitNs), d(rep.CollectiveNs), d(rep.WireNs), d(rep.ControlNs), rep.BytesMoved)
	fmt.Fprintf(w, "  control: eval %v  checkpoint %v\n", d(rep.EvalNs), d(rep.CkptNs))
	if len(rep.StageBusyNs) > 0 {
		fmt.Fprintf(w, "  stage busy:")
		for st, ns := range rep.StageBusyNs {
			fmt.Fprintf(w, " [%d] %v", st, d(ns))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  bubble fraction %.3f  overlap efficiency %.3f\n",
		rep.BubbleFraction, rep.OverlapEfficiency)
	fmt.Fprintf(w, "  ideal wall %v (cost-model bound)  MFU %.3f\n", d(rep.IdealNs), rep.MFU)
	if rep.Heartbeats+rep.Evictions+rep.Replays+rep.CkptWrites+rep.CkptRestores > 0 {
		fmt.Fprintf(w, "  faults: %d heartbeats, %d evictions, %d replays, %d ckpt writes, %d ckpt restores\n",
			rep.Heartbeats, rep.Evictions, rep.Replays, rep.CkptWrites, rep.CkptRestores)
	}
	if measuredWallNs > 0 && rep.WallNs > 0 {
		fmt.Fprintf(w, "  accounted: trace wall is %.1f%% of measured wall %v\n",
			100*float64(rep.WallNs)/float64(measuredWallNs), d(measuredWallNs))
	}
	if rep.DroppedEvents > 0 {
		fmt.Fprintf(w, "  WARNING: %d events dropped at track caps; totals are partial\n", rep.DroppedEvents)
	}
}
