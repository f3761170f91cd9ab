package pipemare_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pipemare"
)

// TestChromeTraceFormat runs a real R=2 × P=4 sharded-commit training
// run with tracing on and asserts the exported JSON is a well-formed
// Chrome trace: every event carries pid/tid/ph/name, timestamps are
// monotonic within each (pid, tid) track, durations are non-negative,
// and the compute/collective/metadata event classes are all present.
func TestChromeTraceFormat(t *testing.T) {
	build, base := traceBase()
	rec := pipemare.NewTraceRecorder()
	opts := append(append([]pipemare.Option{}, base...),
		pipemare.WithTrace(rec),
		pipemare.WithReplicas(2), pipemare.WithShardedStep(true),
		pipemare.WithEngine(replicatedEngine("reference")))
	runCurve(t, build, 2, 2, opts...)

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
