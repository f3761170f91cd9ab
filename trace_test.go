package pipemare_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"pipemare"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/trace"
)

// TestChromeTraceFormat runs a real R=2 × P=4 sharded-commit training
// run with tracing on and asserts the exported JSON is a well-formed
// Chrome trace: every event carries pid/tid/ph/name, timestamps are
// monotonic within each (pid, tid) track, durations are non-negative,
// and the compute/collective/metadata event classes are all present.
func TestChromeTraceFormat(t *testing.T) {
	dnn := recipeNamed(t, "dnn-all")
	rec := pipemare.NewTraceRecorder()
	runCurve(t, dnn.build, 2, 2, withOpts(dnn.opts, pipemare.WithTrace(rec), pipemare.WithReplicas(2))...)

	var buf bytes.Buffer
	if err := pipemare.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("export holds no events")
	}
	lastTs := map[[2]int]float64{}
	spans, instants, metas := 0, 0, 0
	names := map[string]bool{}
	for i, ev := range file.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %d lacks a required field: %+v", i, ev)
		}
		names[ev.Name] = true
		switch ev.Ph {
		case "M":
			metas++
			continue
		case "X":
			spans++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("span %d (%s) has no non-negative dur", i, ev.Name)
			}
		case "i":
			instants++
		default:
			t.Fatalf("event %d has unexpected phase %q", i, ev.Ph)
		}
		if ev.Ts == nil {
			t.Fatalf("event %d (%s) has no timestamp", i, ev.Name)
		}
		key := [2]int{*ev.Pid, *ev.Tid}
		if *ev.Ts < lastTs[key] {
			t.Fatalf("track (%d,%d): ts went backwards at event %d (%s): %v < %v",
				key[0], key[1], i, ev.Name, *ev.Ts, lastTs[key])
		}
		lastTs[key] = *ev.Ts
	}
	if spans == 0 || metas == 0 {
		t.Fatalf("want spans and track metadata, got %d spans, %d instants, %d metas", spans, instants, metas)
	}
	for _, want := range []string{"fwd", "bwd", "commit:step", "reduce", "process_name", "thread_name"} {
		if !names[want] {
			t.Errorf("export is missing %q events", want)
		}
	}
}

// TestLoopbackFollowerTracesItsSlots pins that a worker's WithTrace
// reaches the follower it builds for the leader's hello: in an R = 2 run
// over a loopback connection, traced on one recorder, replica 1 records
// its forward and backward slots under pid 1, as many of each as the
// leader records for its own half of every minibatch.
func TestLoopbackFollowerTracesItsSlots(t *testing.T) {
	dnn := recipeNamed(t, "dnn-all")
	rec := pipemare.NewTraceRecorder()
	dialers, _, wait := startWorkers(t, 1, dnn.build, func() []pipemare.Option { return withOpts(dnn.opts, pipemare.WithTrace(rec)) })
	tr, err := pipemare.New(dnn.build(), withOpts(dnn.opts, pipemare.WithTrace(rec), pipemare.WithReplicas(2), pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
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
	spans := map[[2]any]int{} // (pid, name) → spans
	for _, tk := range rec.Tracks() {
		for _, ev := range tk.Events() {
			spans[[2]any{tk.Pid, ev.Name}]++
		}
	}
	for _, name := range []string{trace.NameFwd, trace.NameBwd} {
		if n, lead := spans[[2]any{1, name}], spans[[2]any{0, name}]; n == 0 || n != lead {
			t.Fatalf("replica 1 recorded %d %s spans, the leader %d: want as many, and some", n, name, lead)
		}
	}
	requireOwnTracks(t, rec, 1)
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
