package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed interval of the benchmark's own work: a phase (setup,
// verify), one epoch call, or one probe call into a layer. Spans of one
// workload run share its name as identifier; parent is the index of the
// enclosing span, -1 at the top.
type span struct {
	name, workload string
	parent         int
	start, end     time.Duration // since the recorder started
}

// spanRecorder keeps the benchmark's spans in memory until the run ends.
// It is driven from the benchmark's main goroutine only: begin/end nest
// like calls, so the open spans form a stack and the top is the parent.
// This recorder wraps the calls *into* the program under test; the
// program's own slot-level trace (pipemare.WithTrace) is a separate
// recorder used by the traced pass.
type spanRecorder struct {
	t0       time.Time
	workload string
	spans    []span
	open     []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// time runs fn under a span and returns how long it took.
func (r *spanRecorder) time(name string, fn func()) time.Duration {
	id := len(r.spans)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, workload: r.workload, parent: parent, start: time.Since(r.t0)})
	r.open = append(r.open, id)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].end = time.Since(r.t0)
	return r.spans[id].end - r.spans[id].start
}

// selfTimes returns, per span, its duration minus the part of its
// interval covered by its direct children (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - covered(children[i], s.start, s.end)
	}
	return self
}

type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi].
// ivs is reordered.
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total time.Duration
	edge := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, edge), min(iv.hi, hi)
		if b > a {
			total += b - a
			edge = b
		}
	}
	return total
}

// phaseTotal is the summed duration and self time of all spans sharing a
// (workload, name) pair.
type phaseTotal struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	TotalS   float64 `json:"total_s"`
	SelfS    float64 `json:"self_s"`
}

// totals groups the recorded spans by workload and name, in first-seen
// order.
func (r *spanRecorder) totals() []phaseTotal {
	self := selfTimes(r.spans)
	index := map[[2]string]int{}
	var out []phaseTotal
	for i, s := range r.spans {
		key := [2]string{s.workload, s.name}
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, phaseTotal{Workload: s.workload, Name: s.name})
		}
		out[j].Count++
		out[j].TotalS += (s.end - s.start).Seconds()
		out[j].SelfS += self[i].Seconds()
	}
	return out
}

// writeChrome exports the spans as Chrome trace-event JSON (complete 'X'
// events, microseconds), loadable in Perfetto next to the program's own
// trace. Nesting on the single track conveys the parent relation; args
// carry it explicitly with the workload identifier.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.parent, "workload": s.workload},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
