package main

import (
	"context"
	"fmt"
	"time"

	"pipemare"
	"pipemare/internal/trace"
)

// tracedPass fills the B rows: the workload rebuilt with the program's
// own slot-level tracing on (pipemare.WithTrace, the leader's recorder)
// and trained for a quarter of the timed pass's epochs, at least 3. The
// recorder cannot be attached after a warm-up epoch, so the session's
// first, cold epoch is traced too: it counts in the per-epoch sums, which
// therefore run a little high, and is left out of the overhead
// comparison, which would otherwise read allocation as tracing cost.
// untraced is the timed pass's epochs in own seconds.
func (r *runner) tracedPass(m metricSet, untraced []float64) (err error) {
	epochs := max(3, len(untraced)/4)
	if r.w.maxTraced > 0 {
		epochs = min(epochs, r.w.maxTraced)
	}
	if r.cfg.quick {
		epochs = 1
	}
	rec := pipemare.NewTraceRecorder()
	var secs []float64
	var stageCosts []float64
	r.spans.time("traced-pass", func() {
		var s *session
		if s, err = r.w.open(r.cfg.seed, r.newDir(), pipemare.WithTrace(rec)); err != nil {
			return
		}
		for e := 0; e < epochs; e++ {
			took := r.spans.clock("traced-epoch", func() { _, err = s.tr.Run(context.Background(), 1) })
			if err == nil {
				err = s.pruneCheckpoints()
			}
			if err != nil {
				s.close()
				return
			}
			secs = append(secs, took.own())
		}
		stageCosts = s.tr.StageCosts()
		// Close before reading the recorder: its tracks must be quiescent.
		err = s.close()
	})
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", r.w.name, err)
	}
	r.res.TracedEpochs = epochs

	rep := pipemare.BuildTraceReport(rec, stageCosts)
	c := countTrace(rec)
	n := float64(epochs)
	steps := n * float64(r.res.SamplesPerEpoch/r.w.batch)
	perEpochS := func(ns int64) float64 { return float64(ns) / 1e9 / n }

	m["core.commit_s_per_epoch"] = perEpochS(rep.CommitNs)
	m["core.control_s_per_epoch"] = perEpochS(rep.ControlNs)

	m["engine.bubble_frac"] = rep.BubbleFraction
	m["engine.schedule_eff"] = rep.MFU // the Report's "MFU" is schedule efficiency, not FLOP utilisation
	m["engine.compute_s_per_epoch"] = perEpochS(rep.ComputeNs)
	var busyMax, busySum int64
	for _, ns := range rep.StageBusyNs {
		busyMax = max(busyMax, ns)
		busySum += ns
	}
	m["engine.stage_busy_max_over_mean"] = 0
	if busySum > 0 {
		m["engine.stage_busy_max_over_mean"] = float64(busyMax) * float64(len(rep.StageBusyNs)) / float64(busySum)
	}
	m["engine.slot_overhead_us"] = 0
	if c.slots > 0 {
		idle := float64(rep.WorkerTracks)*float64(rep.WallNs) - float64(rep.ComputeNs)
		m["engine.slot_overhead_us"] = idle / 1e3 / float64(c.slots)
	}
	m["engine.unattributed_frac"] = 0
	if rep.WallNs > 0 {
		m["engine.unattributed_frac"] = 1 - float64(c.covered)/float64(rep.WallNs)
	}

	m["replica.collective_s_per_epoch"] = perEpochS(rep.CollectiveNs)
	m["replica.bytes_per_step"] = float64(c.collectiveBytes) / steps
	m["replica.collectives_per_step"] = float64(c.collectives) / steps

	m["transport.wire_s_per_epoch"] = perEpochS(rep.WireNs)
	m["transport.retries"] = float64(rep.Retries)

	if len(secs) > 1 {
		secs = secs[1:]
	}
	// Fast epoch against fast epoch, for the reason the end-to-end metrics
	// use it, and over as many untraced epochs as traced ones — the timed
	// pass's last, nearest in time — because the fastest of many is
	// faster than the fastest of few whatever was traced.
	last := untraced[max(0, len(untraced)-len(secs)):]
	m["trace.overhead_frac"] = sortedCopy(secs).at(fastQuantile)/sortedCopy(last).at(fastQuantile) - 1
	m["trace.dropped_events"] = float64(rep.DroppedEvents)
	return nil
}

// traceCounts are the counts the Report does not carry.
type traceCounts struct {
	slots           int           // fwd, bwd and recompute spans
	collectives     int           // reduce, scatter, gather and broadcast spans
	collectiveBytes int64         // payload bytes of those collectives
	covered         time.Duration // wall time inside at least one span of any track
}

func countTrace(rec *pipemare.TraceRecorder) traceCounts {
	var c traceCounts
	var ivs []interval
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for _, tk := range rec.Tracks() {
		for _, ev := range tk.Events() {
			if ev.Ph != 'X' {
				continue
			}
			iv := interval{time.Duration(ev.Ts), time.Duration(ev.Ts + ev.Dur)}
			ivs = append(ivs, iv)
			lo, hi = min(lo, iv.lo), max(hi, iv.hi)
			switch ev.Name {
			case trace.NameFwd, trace.NameBwd, trace.NameRecompute:
				c.slots++
			case trace.NameReduce, trace.NameScatter, trace.NameGather, trace.NameBroadcast:
				c.collectives++
				c.collectiveBytes += ev.Bytes
			}
		}
	}
	c.covered = covered(ivs, lo, hi)
	return c
}
