package pipemare_test

import (
	"context"
	"testing"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/trace"
)

// traceBase is the all-techniques DNN recipe the equivalence suites pin
// (same shape as TestReplicatedEngineMatchesReference), shared by the
// traced-equivalence and trace-format tests.
func traceBase() (func() pipemare.Task, []pipemare.Option) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 6})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 4, 8) }
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
	return build, base
}

// requireComputeTraced asserts the recorder actually observed the run —
// a tracing hook that silently fell off would otherwise let these
// equivalence tests pass vacuously.
func requireComputeTraced(t *testing.T, name string, rec *pipemare.TraceRecorder, wantReplicas int) {
	t.Helper()
	rep := pipemare.BuildTraceReport(rec, nil)
	if rep.ComputeNs <= 0 || rep.WorkerTracks == 0 {
		t.Fatalf("%s: trace recorded no compute (%d ns over %d worker tracks)",
			name, rep.ComputeNs, rep.WorkerTracks)
	}
	if rep.Replicas != wantReplicas {
		t.Fatalf("%s: trace saw %d replicas computing, want %d", name, rep.Replicas, wantReplicas)
	}
	if rep.DroppedEvents != 0 {
		t.Fatalf("%s: %d events dropped at track caps", name, rep.DroppedEvents)
	}
}

// requireWorkerTracksOnly asserts the shape of a traced single-replica
// run: its slots and commit phases land on worker tracks, and it records
// no collective — a group of one moves nothing.
func requireWorkerTracksOnly(t *testing.T, name string, rec *pipemare.TraceRecorder) {
	t.Helper()
	commits := 0
	for _, tk := range rec.Tracks() {
		for _, ev := range tk.Events() {
			switch {
			case tk.Tid == trace.TidControl:
			case tk.Tid >= trace.TidCollectives:
				t.Fatalf("%s: %q on track %d, want only worker and control tracks", name, ev.Name, tk.Tid)
			case ev.Name == trace.NameCommitPrepare || ev.Name == trace.NameCommitStep:
				commits++
			case ev.Name != trace.NameFwd && ev.Name != trace.NameBwd && ev.Name != trace.NameRecompute:
				t.Fatalf("%s: %q on worker track %d", name, ev.Name, tk.Tid)
			}
		}
	}
	if commits == 0 {
		t.Fatalf("%s: no commit span on a worker track", name)
	}
}

// TestTracedRunsMatchReference pins the observability invariant: with
// tracing enabled — across the concurrent engine, the replica-sharded
// commit, and the loopback wire — every curve stays bit-identical to the
// untraced single-replica Reference run. Tracing only reads clocks and
// appends to goroutine-owned buffers; this is the test that keeps it so.
func TestTracedRunsMatchReference(t *testing.T) {
	build, base := traceBase()
	ref := runCurve(t, build, 3, 1, base...)

	for name, eng := range map[string]pipemare.Engine{
		"reference":      pipemare.NewReferenceEngine(),
		"concurrent/W=2": concurrent.New(concurrent.WithWorkers(2)),
	} {
		t.Run(name, func(t *testing.T) {
			rec := pipemare.NewTraceRecorder()
			opts := append(append([]pipemare.Option{}, base...),
				pipemare.WithTrace(rec),
				pipemare.WithEngine(eng))
			got := runCurve(t, build, 3, 1, opts...)
			requireIdentical(t, "traced/"+name, ref, got)
			requireComputeTraced(t, "traced/"+name, rec, 1)
			requireWorkerTracksOnly(t, "traced/"+name, rec)
		})
	}

	t.Run("replicated/R=2/sharded", func(t *testing.T) {
		rec := pipemare.NewTraceRecorder()
		opts := append(append([]pipemare.Option{}, base...),
			pipemare.WithTrace(rec),
			pipemare.WithReplicas(2),
			pipemare.WithEngine(replicatedEngine("reference")))
		got := runCurve(t, build, 3, 2, opts...)
		requireIdentical(t, "traced/replicated", ref, got)
		requireComputeTraced(t, "traced/replicated", rec, 2)
	})

	t.Run("loopback/R=2", func(t *testing.T) {
		dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option {
			return append([]pipemare.Option{}, base...)
		})
		rec := pipemare.NewTraceRecorder()
		leaderOpts := append(append([]pipemare.Option{}, base...),
			pipemare.WithTrace(rec),
			pipemare.WithReplicas(2),
			pipemare.WithEngine(replicatedEngine("reference")),
			pipemare.WithTransport(dialers...))
		tr, err := pipemare.New(build(), leaderOpts...)
		if err != nil {
			kill()
			t.Fatal(err)
		}
		got, err := tr.Run(context.Background(), 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for i, werr := range wait() {
			if werr != nil {
				t.Fatalf("worker %d: %v", i+1, werr)
			}
		}
		requireIdentical(t, "traced/loopback", ref, got)
		// Only the leader computes in the recorder's process; the remote
		// replica shows up as wire traffic instead.
		requireComputeTraced(t, "traced/loopback", rec, 1)
		rep := pipemare.BuildTraceReport(rec, nil)
		if rep.WireNs <= 0 || rep.BytesMoved <= 0 {
			t.Fatalf("loopback trace recorded no wire traffic (%d ns, %d bytes)", rep.WireNs, rep.BytesMoved)
		}
	})
}

// TestReplicatedStepMovesWhatReceiversCannotCompute pins the bytes of one
// replicated step, collective by collective, on an R = 2 loopback run of
// the 4-stage quadratic task (one 2-element float64 parameter per stage,
// 16 bytes) with T2 on and AdamW's two moments per parameter. The
// follower holds chunk 0 and owns stages 2 and 3, so per step:
//   - the reduce carries its one in-place prefix, every stage once — the
//     leader's own per-microbatch exports never cross a member boundary;
//   - the scatter carries the follower's shard of the reduced gradient;
//   - the gather carries each stage's masters to the member that does not
//     own it — never T2's δ and corrected weights, which the importer
//     replays — plus the moments under fault tolerance.
func TestReplicatedStepMovesWhatReceiversCannotCompute(t *testing.T) {
	const stage, p, steps = 16, 4, 8 // bytes per stage parameter; 2 epochs of 4 minibatches
	build := func() pipemare.Task { return newQuadTask(p, 32, 8, 44) }
	base := append(ftBase(), pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
		return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
	}))
	ref := runCurve(t, build, 2, 1, base...)
	for _, ft := range []bool{false, true} {
		name := "plain"
		gather := int64(p * stage) // each stage's masters, to its one non-owner
		if ft {
			name = "fault-tolerant"
			gather *= 3 // and both moments
		}
		t.Run(name, func(t *testing.T) {
			dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
			rec := pipemare.NewTraceRecorder()
			opts := append(append([]pipemare.Option{}, base...), pipemare.WithTrace(rec),
				pipemare.WithReplicas(2), pipemare.WithTransport(dialers...))
			if ft {
				opts = append(opts, pipemare.WithFaultTolerance())
			}
			tr, err := pipemare.New(build(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.Run(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			for i, werr := range wait() {
				if werr != nil {
					t.Fatalf("worker %d: %v", i+1, werr)
				}
			}
			requireIdentical(t, name, ref, got)
			rep := pipemare.BuildTraceReport(rec, nil)
			want := [3]int64{steps * p * stage, steps * 2 * stage, steps * gather}
			if got := [3]int64{rep.ReduceBytes, rep.ScatterBytes, rep.GatherBytes}; got != want {
				t.Fatalf("reduce/scatter/gather moved %v bytes over %d steps, want %v", got, steps, want)
			}
		})
	}
}
