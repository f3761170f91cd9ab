package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilRecorderIsInert pins the zero-cost-when-disabled contract:
// every method on a nil recorder or nil track must no-op, because the
// instrumentation sites call them unconditionally.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Now() != 0 {
		t.Fatal("nil recorder Now() != 0")
	}
	tk := r.Track(0, 0, "worker 0")
	if tk != nil {
		t.Fatal("nil recorder returned a live track")
	}
	tk.Span(NameFwd, tk.Now(), 0, 0, 0)
	tk.Instant(NameEvict, -1, -1, 0)
	if tk.Events() != nil || tk.DroppedEvents() != 0 {
		t.Fatal("nil track recorded something")
	}
	if r.Tracks() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder owns tracks")
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatalf("WriteChrome(nil): %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil-recorder trace is not JSON: %v", err)
	}
	rep := BuildReport(r, nil)
	if rep.WallNs != 0 || rep.WorkerTracks != 0 {
		t.Fatalf("nil-recorder report not zero: %+v", rep)
	}
}

func TestTrackCapCountsDrops(t *testing.T) {
	r := NewWithLimit(2)
	tk := r.Track(0, 0, "worker 0")
	for i := 0; i < 5; i++ {
		tk.Instant(NameEpoch, -1, -1, 0)
	}
	if got := len(tk.Events()); got != 2 {
		t.Fatalf("cap 2 track holds %d events", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
}

func TestTrackRegistryDedupes(t *testing.T) {
	r := New()
	a := r.Track(1, TidCollectives, "collectives")
	b := r.Track(1, TidCollectives, "renamed")
	if a != b {
		t.Fatal("same (pid, tid) produced two tracks")
	}
	if a.Name != "collectives" {
		t.Fatalf("first registration's name lost: %q", a.Name)
	}
}

// synthetic builds a two-replica recorder with a known span layout:
// replica 0 worker 0 computes 100ns fwd + 100ns bwd on stage 0,
// replica 1 worker 0 computes 200ns fwd on stage 1, plus a commit span,
// a collective with bytes, and fault instants.
func synthetic() *Recorder {
	r := New()
	w0 := r.Track(0, 0, "worker 0")
	w0.add(Event{Name: NameFwd, Ph: 'X', Ts: 0, Dur: 100, Stage: 0, Micro: 1})
	w0.add(Event{Name: NameBwd, Ph: 'X', Ts: 150, Dur: 100, Stage: 0, Micro: 1})
	w0.add(Event{Name: NameCommitStep, Ph: 'X', Ts: 260, Dur: 40, Stage: -1, Micro: -1})
	w1 := r.Track(1, 0, "worker 0")
	w1.add(Event{Name: NameFwd, Ph: 'X', Ts: 50, Dur: 200, Stage: 1, Micro: 2})
	col := r.Track(0, TidCollectives, "collectives")
	col.add(Event{Name: NameReduce, Ph: 'X', Ts: 250, Dur: 50, Stage: -1, Micro: -1, Bytes: 4096})
	ctl := r.Track(0, TidControl, "control")
	ctl.add(Event{Name: NameEvict, Ph: 'i', Ts: 280, Stage: -1, Micro: -1})
	ctl.add(Event{Name: NameCkptWrite, Ph: 'X', Ts: 290, Dur: 5, Stage: -1, Micro: -1})
	return r
}

func TestBuildReportAccounting(t *testing.T) {
	rep := BuildReport(synthetic(), []float64{3, 1})
	if rep.WallNs != 300 { // [0, 300): the control span [290, 295) sits inside
		t.Fatalf("wall = %d, want 300", rep.WallNs)
	}
	if rep.ComputeNs != 400 || rep.CommitNs != 40 || rep.CollectiveNs != 50 || rep.ControlNs != 5 {
		t.Fatalf("compute/commit/collective/control = %d/%d/%d/%d, want 400/40/50/5",
			rep.ComputeNs, rep.CommitNs, rep.CollectiveNs, rep.ControlNs)
	}
	if rep.WorkerTracks != 2 || rep.Replicas != 2 {
		t.Fatalf("tracks/replicas = %d/%d, want 2/2", rep.WorkerTracks, rep.Replicas)
	}
	if len(rep.StageBusyNs) != 2 || rep.StageBusyNs[0] != 200 || rep.StageBusyNs[1] != 200 {
		t.Fatalf("stage busy = %v, want [200 200]", rep.StageBusyNs)
	}
	if rep.BytesMoved != 4096 {
		t.Fatalf("bytes = %d, want 4096", rep.BytesMoved)
	}
	// capacity = 2 tracks × 300ns; compute 400 → overlap 2/3, bubble 1/3.
	if diff := rep.OverlapEfficiency - 2.0/3.0; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("overlap = %v, want 2/3", rep.OverlapEfficiency)
	}
	// ideal = max(400/2, 400/2 replicas × 3/4 share) = max(200, 150) = 200.
	if rep.IdealNs != 200 {
		t.Fatalf("ideal = %d, want 200", rep.IdealNs)
	}
	if diff := rep.MFU - 200.0/300.0; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("MFU = %v, want 2/3", rep.MFU)
	}
	if rep.Evictions != 1 || rep.CkptWrites != 1 {
		t.Fatalf("evictions/ckpt = %d/%d, want 1/1", rep.Evictions, rep.CkptWrites)
	}
	if order := rep.StageOrder(); len(order) != 2 {
		t.Fatalf("stage order = %v", order)
	}
	var buf bytes.Buffer
	rep.Format(&buf, 310)
	out := buf.String()
	for _, want := range []string{"bubble fraction", "MFU", "accounted", "evictions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestReportAttributesControlSpans pins the control track's split: eval
// and checkpoint writes get their own buckets, an elastic handoff only the
// control total, and instants none. None of it is worker capacity.
func TestReportAttributesControlSpans(t *testing.T) {
	r := New()
	w0 := r.Track(0, 0, "worker 0")
	w0.add(Event{Name: NameFwd, Ph: 'X', Ts: 0, Dur: 100, Stage: 0, Micro: 0})
	ctl := r.Track(0, TidControl, "control")
	ctl.add(Event{Name: NameCkptWrite, Ph: 'X', Ts: 100, Dur: 7, Stage: -1, Micro: -1})
	ctl.add(Event{Name: NameEval, Ph: 'X', Ts: 110, Dur: 30, Stage: -1, Micro: -1})
	ctl.add(Event{Name: NameEpoch, Ph: 'i', Ts: 140, Stage: -1, Micro: -1})
	ctl.add(Event{Name: NameHandoff, Ph: 'X', Ts: 150, Dur: 50, Stage: -1, Micro: -1})
	rep := BuildReport(r, nil)
	if rep.EvalNs != 30 || rep.CkptNs != 7 || rep.ControlNs != 87 {
		t.Fatalf("eval/ckpt/control = %d/%d/%d, want 30/7/87", rep.EvalNs, rep.CkptNs, rep.ControlNs)
	}
	if rep.WallNs != 200 || rep.WorkerTracks != 1 || rep.BubbleFraction != 0.5 {
		t.Fatalf("wall/tracks/bubble = %d/%d/%v, want 200/1/0.5", rep.WallNs, rep.WorkerTracks, rep.BubbleFraction)
	}
	var buf bytes.Buffer
	rep.Format(&buf, 0)
	if want := "  control: eval 30ns  checkpoint 7ns\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("report output missing %q:\n%s", want, buf.String())
	}
}

func TestWriteChromeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, synthetic()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var metas, spans, instants int
	lastTs := map[[2]int]float64{}
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			continue
		case "X":
			spans++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
		key := [2]int{ev.Pid, ev.Tid}
		if ev.Ts < lastTs[key] {
			t.Fatalf("ts not monotonic on track %v", key)
		}
		lastTs[key] = ev.Ts
	}
	if metas == 0 || spans != 6 || instants != 1 {
		t.Fatalf("metas/spans/instants = %d/%d/%d, want >0/6/1", metas, spans, instants)
	}
	// The fwd span must carry its stage and micro in args.
	found := false
	for _, ev := range parsed.TraceEvents {
		if ev.Name == NameFwd && ev.Pid == 1 {
			found = true
			if ev.Args["stage"] != float64(1) || ev.Args["micro"] != float64(2) {
				t.Fatalf("fwd args = %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("replica 1 fwd span missing")
	}
}
