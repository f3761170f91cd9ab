// Package trace is the run-time event recorder behind pipemare's
// observability surface: engines, the replica layer, the wire transport
// and the checkpoint path emit spans (slot executions, commit phases,
// collectives with byte counts, wire round-trips) and instants
// (heartbeats, evictions, replays, checkpoint writes/restores) into
// per-track append-only buffers, and the buffers export as
// Chrome/Perfetto trace-event JSON (WriteChrome) or reduce to an
// occupancy Report (bubble fraction, overlap efficiency, MFU).
//
// # Cost model
//
// Tracing must never perturb training. Three properties guarantee it:
//
//   - Zero cost when disabled: every method is a no-op on a nil
//     *Recorder or nil *Track, so instrumentation sites pay one nil
//     check and nothing else. No recorder is allocated unless the user
//     asked for one via pipemare.WithTrace.
//   - Allocation-bounded when enabled: each track owns one event slice
//     that grows to a hard cap (limit events); past the cap events are
//     counted as dropped, not recorded, so a long run cannot grow
//     memory without bound. Recording an event is a monotonic clock
//     read and a struct append — no formatting, no maps, no interfaces.
//   - Race-free by ownership, not locking: the Recorder's mutex guards
//     only the track registry. Event appends are unsynchronized because
//     every track has exactly one writer at a time, with the writer
//     handoffs riding the happens-before edges the engines already have
//     (worker spawn, WaitGroup joins, channel sends, the transport
//     member's own mutex). The -race equivalence tests pin this.
//
// # Determinism
//
// The recorder only reads the clock and appends to pre-owned buffers.
// It never draws randomness, never blocks, and never feeds anything
// back into scheduling or arithmetic, so training curves are
// bit-identical with tracing on or off — the repo-wide invariant, held
// by the trace-enabled equivalence tests.
package trace

import (
	"sync"
	"time"
)

// Track tid namespaces. Compute workers take tids [0, TidCollectives);
// the per-replica collective, wire and control tracks sit at fixed tids
// so exporters and the Report can classify events by track alone.
const (
	TidWorkerBase  = 0   // compute worker w of a replica → tid w
	TidCollectives = 100 // replica collectives: reduce/scatter/gather, sharded commit phases
	TidWire        = 200 // transport round-trips to this replica's remote member
	TidControl     = 300 // run control: epoch marks, eval, checkpoint, faults
)

// Span and instant names. Interned constants so emission never formats
// strings; exporters and the Report classify by exact match.
const (
	NameFwd       = "fwd"
	NameBwd       = "bwd"
	NameRecompute = "recompute"

	NameCommitPrepare = "commit:prepare"
	NameCommitStep    = "commit:step"

	NameReduce  = "reduce"
	NameScatter = "scatter"
	NameGather  = "gather"
	// NameBroadcast named the leader-serial commit's state push. Nothing
	// emits it since that commit was deleted; the benchmark's trace
	// accounting still reads the name.
	NameBroadcast = "broadcast"

	NameHeartbeat   = "heartbeat"
	NameEvict       = "evict"
	NameReplay      = "replay"
	NameCkptWrite   = "checkpoint:write"
	NameCkptRestore = "checkpoint:restore"
	NameEpoch       = "epoch"
	NameEval        = "eval"
	NameJoin        = "join"
	NameDemote      = "demote"
	NameRejoin      = "rejoin"
	NameHandoff     = "handoff"
)

// Event is one recorded span ('X') or instant ('i'). Timestamps are
// nanoseconds since the recorder's start on the monotonic clock.
type Event struct {
	Name  string
	Ph    byte  // 'X' = complete span, 'i' = instant
	Ts    int64 // start (spans) or occurrence (instants), ns
	Dur   int64 // span duration, ns; 0 for instants
	Stage int   // -1 when the event is not stage-scoped
	Micro int   // global microbatch slot; -1 when not microbatch-scoped
	Bytes int64 // payload bytes moved (collectives, wire); 0 when n/a
}

// Carrier is implemented by engine hosts that carry a recorder. Engines
// discover tracing by type-asserting their Host against it; a host
// without a recorder (or with tracing off) returns nil and every
// emission downstream becomes a no-op.
type Carrier interface {
	// Tracer returns the run's recorder (nil when tracing is off) and
	// the replica index of the trainer behind this host (0 = leader).
	Tracer() (*Recorder, int)
}

// FromCarrier extracts the recorder and replica index when v carries
// one, else (nil, 0).
func FromCarrier(v any) (*Recorder, int) {
	if c, ok := v.(Carrier); ok {
		return c.Tracer()
	}
	return nil, 0
}

// DefaultLimit is the per-track event cap: at ~64 bytes an event, a
// saturated track tops out near 16 MiB.
const DefaultLimit = 1 << 18

// Recorder collects events across tracks against one monotonic time
// base. The zero value is not usable; construct with New. A nil
// *Recorder is a valid "tracing off" recorder: every method no-ops.
type Recorder struct {
	start time.Time
	limit int

	mu     sync.Mutex
	tracks []*Track
}

// New returns a recorder with the default per-track event cap.
func New() *Recorder { return NewWithLimit(DefaultLimit) }

// NewWithLimit returns a recorder capping each track at limit events.
func NewWithLimit(limit int) *Recorder {
	if limit < 1 {
		limit = 1
	}
	return &Recorder{start: time.Now(), limit: limit}
}

// Now returns nanoseconds since the recorder started (monotonic), or 0
// on a nil recorder.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.start).Nanoseconds()
}

// Track returns the track for (pid, tid), creating it with the given
// display name on first use; nil on a nil recorder. pid is a replica
// index, tid a slot in the Tid* namespaces. The returned *Track must be
// written by one goroutine at a time (see the package comment).
func (r *Recorder) Track(pid, tid int, name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.tracks {
		if t.Pid == pid && t.Tid == tid {
			return t
		}
	}
	t := &Track{rec: r, Pid: pid, Tid: tid, Name: name}
	r.tracks = append(r.tracks, t)
	return t
}

// Tracks snapshots the track registry. The tracks' event slices are not
// copied: call only when no writer is active (after Run returns, or
// between epochs) — the same quiescence WriteChrome and BuildReport
// require.
func (r *Recorder) Tracks() []*Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Track, len(r.tracks))
	copy(out, r.tracks)
	return out
}

// Track is one timeline: a (pid, tid) pair with an append-only event
// buffer owned by a single writer at a time. A nil *Track no-ops every
// method, so disabled tracing costs one nil check per emission site.
type Track struct {
	rec     *Recorder
	Pid     int    // replica index
	Tid     int    // worker index or a Tid* constant
	Name    string // thread_name metadata in the Chrome export
	events  []Event
	dropped int
}

// Now returns the owning recorder's clock, or 0 on a nil track.
func (t *Track) Now() int64 {
	if t == nil {
		return 0
	}
	return t.rec.Now()
}

// Span records a complete span that started at startNs (a value from
// Now) and ends now.
func (t *Track) Span(name string, startNs int64, stage, micro int, bytes int64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: 'X', Ts: startNs, Dur: t.rec.Now() - startNs,
		Stage: stage, Micro: micro, Bytes: bytes})
}

// Instant records a point event at the current time.
func (t *Track) Instant(name string, stage, micro int, bytes int64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: 'i', Ts: t.rec.Now(),
		Stage: stage, Micro: micro, Bytes: bytes})
}

func (t *Track) add(ev Event) {
	if len(t.events) >= t.rec.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Events returns the track's recorded events (not a copy). Same
// quiescence requirement as Recorder.Tracks.
func (t *Track) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// DroppedEvents returns how many events this track discarded at its cap.
func (t *Track) DroppedEvents() int {
	if t == nil {
		return 0
	}
	return t.dropped
}
