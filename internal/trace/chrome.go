package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the JSON Perfetto and chrome://tracing load).
// Timestamps and durations are microseconds; fractional µs keep the
// recorder's nanosecond resolution.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope: "t" = thread
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the object form of the format ({"traceEvents": [...]});
// the object form (vs the bare array) lets viewers ignore trailing
// metadata and tolerates truncation less silently.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChrome serializes the recorder's tracks as Chrome trace-event
// JSON: one pid per replica (process_name metadata "replica N"), one
// tid per track (thread_name metadata), complete 'X' events for spans
// and thread-scoped 'i' events for instants, with stage/micro/bytes in
// args. Events are sorted by start time within each track, so ts is
// monotonic per (pid, tid). Call only when training is quiescent (after
// Run returns). A nil recorder writes an empty but valid trace.
func WriteChrome(w io.Writer, r *Recorder) error {
	tracks := r.Tracks()
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].Pid != tracks[j].Pid {
			return tracks[i].Pid < tracks[j].Pid
		}
		return tracks[i].Tid < tracks[j].Tid
	})

	out := chromeFile{DisplayUnit: "ns", TraceEvents: []chromeEvent{}}
	seenPid := map[int]bool{}
	for _, t := range tracks {
		if !seenPid[t.Pid] {
			seenPid[t.Pid] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: t.Pid,
				Args: map[string]any{"name": fmt.Sprintf("replica %d", t.Pid)},
			})
		}
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("track %d", t.Tid)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: t.Pid, Tid: t.Tid,
			Args: map[string]any{"name": name},
		})

		evs := t.Events()
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
		for _, ev := range evs {
			ce := chromeEvent{
				Name: ev.Name,
				Pid:  t.Pid,
				Tid:  t.Tid,
				Ts:   float64(ev.Ts) / 1e3,
				Args: eventArgs(ev),
			}
			switch ev.Ph {
			case 'X':
				d := float64(ev.Dur) / 1e3
				ce.Ph, ce.Dur = "X", &d
			default:
				ce.Ph, ce.S = "i", "t"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
		if n := t.DroppedEvents(); n > 0 {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "dropped_events", Ph: "M", Pid: t.Pid, Tid: t.Tid,
				Args: map[string]any{"count": n},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// eventArgs builds the args payload, omitting fields that are not set
// so the JSON stays compact. json.Marshal sorts map keys, keeping the
// output deterministic.
func eventArgs(ev Event) map[string]any {
	var args map[string]any
	set := func(k string, v any) {
		if args == nil {
			args = map[string]any{}
		}
		args[k] = v
	}
	if ev.Stage >= 0 {
		set("stage", ev.Stage)
	}
	if ev.Micro >= 0 {
		set("micro", ev.Micro)
	}
	if ev.Bytes > 0 {
		set("bytes", ev.Bytes)
	}
	return args
}
