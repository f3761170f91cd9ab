// Package replica implements the coordination layer for multi-replica
// data-parallel training: R pipeline replicas (each a full trainer weight
// partition driven by its own inner execution engine) split a minibatch's
// microbatches between them, and a deterministic tree all-reduce folds the
// per-microbatch gradients into the leader replica before one shared
// optimizer step — the PipeDream-style hybrid of pipeline and data
// parallelism. The step itself commits in one of two modes (Group.Commit):
// leader-serial (engine.Commit on the leader), with the post-step state
// broadcast back to the followers, or — the default for R > 1 —
// replica-sharded ZeRO / PipeDream-2BW style: an engine.CommitPlan assigns
// each stage to a replica owner, the
// leader's reduced gradients scatter to their owners, every owner steps
// its shard against its local shard of the optimizer state, and the
// stepped weights all-gather back (the inverted broadcast), so the commit
// tail no longer runs serially on the leader and followers hold no
// redundant optimizer state.
//
// # Determinism
//
// The reduction is bit-identical to a single-replica run over the same
// global microbatch set, for any R. Three properties make that possible:
//
//  1. Chunks are contiguous and ordered: replica r computes global
//     microbatches [start_r, start_r+n_r) with start_{r+1} = start_r+n_r,
//     so concatenating the replicas' per-microbatch gradient lists in
//     replica order reproduces the global microbatch order.
//  2. Followers export one gradient per (microbatch, stage), computed
//     into a zeroed accumulator. By the nn accumulation contract (see
//     nn.Param.Grad), a layer adds its whole per-call contribution with
//     exactly one add per element, so the exported value is bitwise the
//     same scalar a serial run would have added to its running sum.
//  3. The all-reduce gathers the followers' ordered lists up a binary
//     tree (a communication schedule with no arithmetic) and performs
//     every floating-point add at the root: the leader — whose own chunk
//     is the fold's prefix, accumulated in place — folds the gathered
//     gradients in global microbatch order, one add per element.
//
// The fold order is therefore a pure left fold over microbatches 0..N−1
// regardless of R or tree shape — exactly the serial engine's order.
//
// # Members and membership
//
// The package also owns what a replica member is and who is in the run.
// Member is the small contract every replica honours wherever it lives;
// a member is then either Local (its pipeline runs in this process,
// through a Compute wrapper and an inner engine) or Remote (it sits
// behind a connection and can therefore fail, straggle, stand by and
// leave). Group holds the one membership table — a record per member
// with a stable id — and Group.Transition is the one operation that
// changes it: eviction, demotion, join and rejoin are its edges
// (membership.go).
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"pipemare/internal/engine"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// Member is what the group asks of every replica, wherever it runs. Every
// method but Stages is exactly one request on the wire (the table is in
// DESIGN.md §5), and none reads the leader: what a member needs of the
// leader's state arrives as an argument. internal/core's host implements
// it in process and transport.RemoteMember over a connection; nothing
// here drives a pipeline slot, so a remote member has no slot methods to
// refuse.
type Member interface {
	// Stages returns P, the number of pipeline stages.
	Stages() int
	// SetStageGrads overwrites the stage's gradient accumulators with
	// bufs (a pure copy) — the scatter half of the sharded commit.
	SetStageGrads(stage int, bufs []*tensor.Tensor)
	// PrepareStage, ScaleStage, BeginStep, StepStage and FinishStage are
	// the commit phases of engine.Committer, run by a stage's owner against
	// its own parameter copies and optimizer state.
	PrepareStage(stage, nMicro int) float64
	ScaleStage(stage int, scale float64)
	BeginStep()
	StepStage(stage int)
	FinishStage(stage int)
	// StageState returns the stage's live post-step state tensors
	// (masters, then T2 δ and corrected when enabled, then the optimizer
	// moments under the fault-tolerant layout) in a fixed layout; the
	// returned tensors are read-only for the gather.
	StageState(stage int) []*tensor.Tensor
	// ImportStageState copies a stage's post-step state from the owner's
	// StageState layout and pushes the replica's next weight version for
	// that stage — the gather half of the sharded commit, a stage of a push.
	ImportStageState(stage int, src []*tensor.Tensor)
	// SetEpoch and SetStep align the member's clocks with the leader's: the
	// epoch so the commit-phase learning rates (T1/T3 phase) agree on every
	// owner, the optimizer step as the tail of a state push.
	SetEpoch(epoch int)
	SetStep(step int)
	// RestoreVersions replaces a stage's weight-version ring wholesale
	// (base is its oldest version number, snaps the versions oldest to
	// newest), so historical-version installs after a restore or a
	// handoff are bit-identical to the leader's.
	RestoreVersions(stage, base int, snaps [][]*tensor.Tensor)
}

// Local is a member whose pipeline lives in this process: the
// engine.Host an inner engine drives through a Compute wrapper, plus the
// chunk's epoch phase and the two gradient moves that never cross the wire.
// internal/core's host is the implementation — for the leader, for
// in-process followers, and for the follower a worker process serves.
type Local interface {
	Member
	engine.Host
	// SetAsync sets the epoch phase of the chunk the member is about to
	// run: whether its slots install delayed weights. It arrives with the
	// chunk because a follower never advances its own epoch clock — the
	// leader's view is authoritative for all replicas.
	SetAsync(async bool)
	// TakeStageGrads moves the stage's accumulated parameter gradients
	// into bufs (allocating buffers when bufs is nil) and zeroes the
	// stage's accumulators. It must only be called from the goroutine
	// that owns the stage's slots.
	TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor
	// FoldStageGrads adds previously exported buffers into the stage's
	// accumulators with exactly one add per element.
	FoldStageGrads(stage int, bufs []*tensor.Tensor)
}

// Remote is a member hosted behind a connection
// (transport.RemoteMember). Its chunk runs out of process: the group
// ships it in one RunChunk call — the worker drives it through its own
// inner engine — and gets back exactly the losses and per-(microbatch,
// stage) gradient exports a local follower's Compute would have
// captured. Its collectives block on I/O, so BindContext binds each
// minibatch's context to them; its failures are sticky — the first
// transport error latches, every later operation fails fast, and Err
// reports it after each collective phase; and it can sit out of the
// group as a standby: Ready reports that a demoted member's late
// in-flight reply has drained, Rearm resets its straggler accounting
// before readmission. SetID tells the proxy the stable id the group gave
// its record, once, as the record enters the table — the label of its
// wire track and error text. Only a Remote can leave the group (see
// Group.Transition): an in-process member has no clean failure point.
type Remote interface {
	Member
	io.Closer
	SetID(id int)
	RunChunk(ctx context.Context, start int, async bool, micros [][]int) (losses []float64, grads [][][]*tensor.Tensor, err error)
	BindContext(ctx context.Context)
	Err() error
	Ready() bool
	Rearm()
}

// Leader is the host of a trainer that leads a replica group — what a
// replicated engine looks for on the engine.Host it is started with. With
// ClipScale it is the engine.Committer of the leader-serial commit.
type Leader interface {
	Local
	// Group returns the trainer's replica group, nil when it trains a
	// single replica.
	Group() *Group
	// Step and Epoch read the clocks a member's SetStep and SetEpoch get.
	Step() int
	Epoch() int
	// Async reports whether the current epoch runs asynchronously (false
	// for GPipe and during T3 warmup epochs): the phase every member's
	// chunk is framed with.
	Async() bool
	// ClipScale converts the global gradient sum-of-squares into the
	// clipping factor (engine.Committer).
	ClipScale(sumSq float64) float64
}

// Aware marks execution engines that understand the replica surface and
// drive all R replicas of a Leader host. The trainer refuses a
// non-replica-aware engine when replication is configured, because such
// an engine would silently train only the leader.
type Aware interface {
	DrivesReplicas()
}

// Group coordinates one leader and its followers for a replicated
// execution engine, and is the one place that knows who is in the run: it
// holds the membership table (membership.go), splits each minibatch into
// contiguous per-replica chunks, runs every member's chunk, and runs the
// reduce and commit phases — either the leader-serial commit with a
// full-state broadcast, or the replica-sharded commit protocol of Commit.
// A trainer builds its Group once and keeps it for life; the replicated
// engine borrows it for each Run.
type Group struct {
	lead Leader
	p    int

	// members is the membership table. members[:active] are the active
	// members in group position order — members[0] is the leader — and
	// members[active:] are the standbys. Only Transition reorders it.
	members []*member
	active  int
	nextID  int

	plan      engine.CommitPlan // stage→position owners over the active members (sharded commit)
	shardable bool              // the trainer resolved the sharded commit on
	sharded   bool              // shardable and more than one active member
	ft        bool              // full moments everywhere: a sharded group may lose a member

	inner func() engine.Engine // inner-engine factory; non-nil between Start and Stop

	scatter [][]*tensor.Tensor // per-stage staging for the grad scatter
	sumSqs  []float64          // per-stage clip-norm partials

	// rec is the leader's trace recorder (nil when tracing is off). Each
	// member record carries its own collectives track: the orchestrator
	// goroutine writes the leader's (reduce, scatter, gather) and each
	// eachMember/Broadcast goroutine writes only its own member's, with
	// the phases' WaitGroup barriers ordering the handoffs.
	rec *trace.Recorder

	joins, demotions, evictions int
}

// NewGroup builds the group for a leader and its initial followers, which
// take ids and positions 1..len(followers). sharded is the trainer's
// resolved commit mode; faultTolerant reports the mirrored-moment layout
// that lets a sharded group survive losing an owner.
func NewGroup(lead Leader, followers []Member, sharded, faultTolerant bool) (*Group, error) {
	p := lead.Stages()
	g := &Group{lead: lead, p: p, shardable: sharded, ft: faultTolerant,
		scatter: make([][]*tensor.Tensor, p), sumSqs: make([]float64, p)}
	g.rec, _ = trace.FromCarrier(lead)
	for _, m := range append([]Member{lead}, followers...) {
		rec, err := g.enter(m)
		if err != nil {
			return nil, err
		}
		g.move(rec, Active)
	}
	return g, nil
}

// tensorsBytes sums the payload size a tensor list moves (element count
// times the dtype's width) — called only when tracing is on.
func tensorsBytes(ts []*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		n += int64(t.Bytes())
	}
	return n
}

// Replicas returns R, the number of active members.
func (g *Group) Replicas() int { return g.active }

// Start gives every active in-process member its own inner engine from
// the factory, started over the member's compute wrapper; members that
// become active before Stop get one too.
func (g *Group) Start(inner func() engine.Engine) {
	g.inner = inner
	for _, m := range g.members[:g.active] {
		m.setEngine(inner)
	}
}

// Stop stops and releases the inner engines: Start with no factory.
func (g *Group) Stop() { g.Start(nil) }

// begin prepares the group for one minibatch: it splits the N microbatch
// index sets into R contiguous, ordered chunks (sizes differing by at
// most one), snapshots the leader's epoch phase (async) and microbatch
// base, resets the per-replica loss and gradient staging, and binds ctx
// into remote members so cancellation reaches their blocking I/O. It
// returns the chunk for each replica.
func (g *Group) begin(ctx context.Context, micros [][]int) [][][]int {
	r := g.active
	n := len(micros)
	base := g.lead.MicroBase()
	async := g.lead.Async()
	chunks := make([][][]int, r)
	lo := 0
	for i, m := range g.members[:r] {
		sz := n / r
		if i < n%r {
			sz++
		}
		chunks[i] = micros[lo : lo+sz]
		if m.remote != nil {
			m.chunk.begin(base+lo, sz, async)
			m.remote.BindContext(ctx)
		} else {
			m.comp.BeginChunk(base+lo, sz, async)
		}
		lo += sz
	}
	return chunks
}

// RunChunks runs one attempt at the minibatch's compute phase: begin,
// then every active member's chunk concurrently — in-process members
// through their inner engine, remote members in one RunChunk round trip.
//
// When it returns nil every replica has drained and restored its master
// weights (the inner-engine contract), and follower stage accumulators
// are clean because every follower backward slot exports-and-zeroes. A
// divergence anywhere matches the serial run — the bad microbatch's loss
// is computed from identical weights and samples there too — and the
// leader's partial accumulation is dropped by the trainer. A member
// failure comes back as *MemberError only when no other member failed in
// a way that aborts the run (a cancel or a leader failure always does).
// A straggler outranks a dead member, and either is handled one per
// attempt: the other resurfaces on the replay — a second straggler's
// RunChunk fails fast while it drains, a dead member through its sticky
// error. The member left with its chunk, so the replay flag is set.
func (g *Group) RunChunks(ctx context.Context, micros [][]int) error {
	chunks := g.begin(ctx, micros)
	errs := make([]error, g.active)
	var wg sync.WaitGroup
	wg.Add(g.active)
	for i, m := range g.members[:g.active] {
		go func() {
			defer wg.Done()
			errs[i] = m.run(ctx, chunks[i])
		}()
	}
	wg.Wait()
	var fault *MemberError
	var abort error
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, engine.ErrDiverged) {
			return engine.ErrDiverged
		}
		var me *MemberError
		if !errors.As(g.classify(g.members[i], err, true), &me) {
			if abort == nil {
				abort = err
			}
		} else if fault == nil || (me.To == Standby && fault.To != Standby) {
			fault = me
		}
	}
	if abort != nil || fault == nil {
		return abort
	}
	return fault
}

// Reduce performs the deterministic tree all-reduce: a binary-tree gather
// of the followers' ordered per-microbatch gradient lists (rounds of
// pairwise list handoffs — the communication schedule), then the root
// fold into the leader's accumulators in global microbatch order. Stages
// are folded concurrently; within a stage the order is fixed, so the
// result is bit-identical to serial single-replica accumulation.
func (g *Group) Reduce() {
	r := g.active
	t0 := g.rec.Now()
	// Tree gather: at round d, member m (m ≡ 0 mod 2d) absorbs member
	// m+d's ordered list. Chunks are contiguous, so concatenation in
	// replica order preserves global microbatch order.
	lists := make([][][][]*tensor.Tensor, r)
	for i := 1; i < r; i++ {
		// Full-slice expression: appends during the gather must reallocate
		// rather than scribble over the member's pooled staging entries.
		c := g.members[i].chunk
		lists[i] = c.grads[:c.n:c.n]
	}
	for d := 1; d < r; d *= 2 {
		for m := 0; m+d < r; m += 2 * d {
			lists[m] = append(lists[m], lists[m+d]...)
			lists[m+d] = nil
		}
	}
	// Root fold, one goroutine per stage (stages touch disjoint params).
	var wg sync.WaitGroup
	wg.Add(g.p)
	for st := 0; st < g.p; st++ {
		go func() {
			defer wg.Done()
			for _, micro := range lists[0] {
				g.lead.FoldStageGrads(st, micro[st])
			}
		}()
	}
	wg.Wait()
	if g.rec != nil {
		var bytes int64
		for _, micro := range lists[0] {
			for _, stage := range micro {
				bytes += tensorsBytes(stage)
			}
		}
		g.members[0].track.Span(trace.NameReduce, t0, -1, -1, bytes)
	}
}

// push is the one state push from the leader to member m, a member call —
// for a remote member a wire request — at a time: every stage's post-step
// state in the gather layout, then the step clock; a full push (rings
// non-nil) sends the epoch clock first and each stage's weight-version
// ring last, which is everything a replica trains from. A member whose
// connection fails latches the error and ignores the rest.
func (g *Group) push(m *member, rings func(stage int) (int, [][]*tensor.Tensor)) {
	if rings != nil {
		m.SetEpoch(g.lead.Epoch())
	}
	for st := 0; st < g.p; st++ {
		m.ImportStageState(st, g.lead.StageState(st))
	}
	m.SetStep(g.lead.Step())
	if rings != nil {
		for st := 0; st < g.p; st++ {
			base, snaps := rings(st)
			m.RestoreVersions(st, base, snaps)
		}
	}
}

// Broadcast pushes the leader's post-step state to every follower
// (concurrently: followers write disjoint state and only read the
// leader's). A follower I/O failure stays latched on the member.
func (g *Group) Broadcast() {
	var wg sync.WaitGroup
	for _, m := range g.members[1:g.active] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := m.track.Now()
			g.push(m, nil)
			m.track.Span(trace.NameBroadcast, t0, -1, -1, 0)
		}()
	}
	wg.Wait()
}

// Commit commits one shared optimizer step for the minibatch Reduce just
// folded into the leader: the leader-serial commit followed by the full
// Broadcast when sharding is off, or the replica-sharded owner protocol.
// A member failure surfaces as *MemberError when the member can leave the
// group (see classify) and as a plain wrapped error otherwise; the group
// must not commit again after a plain error.
func (g *Group) Commit(nMicro int) error {
	if !g.sharded {
		engine.Commit(g.lead, nMicro, nil)
		g.Broadcast()
		if m, err := g.firstFault(); m != nil {
			// The leader has stepped and every healthy follower synced from
			// it independently, so a dead broadcast target leaves without
			// replay: the minibatch's loss and step are already final.
			return g.classify(m, err, false)
		}
		return nil
	}
	return g.shardedCommit(nMicro)
}

// shardedCommit is the ZeRO / PipeDream-2BW style replica-sharded commit.
// The commit plan assigns each stage to a replica owner (contiguous
// shards, sizes differing by at most one); each owner runs the commit
// phases for its shard against its own parameter copies and its local
// shard of the optimizer state, so no replica — leader included — steps
// more than ⌈P/R⌉ stages and followers hold no moment state outside their
// shard.
//
// Determinism (bit-identical to the leader-serial commit, and hence to
// single-replica Reference):
//
//  1. The scatter is a pure copy. All gradient arithmetic stayed at the
//     tree root (Reduce); an owner's accumulator receives the leader's
//     reduced gradient bitwise.
//  2. Per-stage phase arithmetic is location-independent. PrepareStage,
//     ScaleStage, StepStage and FinishStage touch only the stage's
//     parameter range, and every input — masters (broadcast-synced),
//     reduced gradients (scattered), moment state (stepped only by the
//     owner, every step, from identical inputs), step clocks (every
//     member advances once per commit), τ delays and schedules (identical
//     by construction), the epoch phase (SetEpoch) — is bitwise equal to
//     the leader's, so the owner performs bitwise the arithmetic the
//     leader would have.
//  3. Cross-stage reductions keep stage order. The clip-norm partials are
//     folded st = 0..P−1 on the orchestrator, exactly as the serial
//     commit sums them, and the resulting scale is computed once.
//  4. The gather is a pure copy. Every member imports each stage it does
//     not own from the owner's post-step state (the inverse of the old
//     leader broadcast) and pushes its version queue exactly once per
//     stage, so every replica's version history replays identically.
func (g *Group) shardedCommit(nMicro int) error {
	p := g.p
	ltk := g.members[0].track
	// Scatter: move the leader's reduced gradients to their owners and
	// align follower epoch clocks. TakeStageGrads zeroes the leader's
	// accumulator, so gradient ownership moves wholesale.
	t0 := g.rec.Now()
	var scatterBytes int64
	for _, m := range g.members[1:g.active] {
		m.SetEpoch(g.lead.Epoch())
	}
	for st := 0; st < p; st++ {
		if o := g.plan.OwnerOf(st); o != 0 {
			g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
			g.members[o].SetStageGrads(st, g.scatter[st])
			if g.rec != nil {
				scatterBytes += tensorsBytes(g.scatter[st])
			}
		}
	}
	ltk.Span(trace.NameScatter, t0, -1, -1, scatterBytes)
	// Prepare: owners average their shard's gradients and report the
	// per-stage clip partials.
	g.eachMember(func(_ int, m *member, lo, hi int) {
		t0 := g.rec.Now()
		for st := lo; st < hi; st++ {
			g.sumSqs[st] = m.PrepareStage(st, nMicro)
		}
		m.track.Span(trace.NameCommitPrepare, t0, lo, -1, 0)
	})
	if m, err := g.firstFault(); m != nil {
		// No member has advanced its step clock yet, so a failure up to
		// Prepare replays the whole minibatch over the survivors
		// (ResetGrads first — the scatter moved gradients).
		return g.classify(m, err, true)
	}
	sumSq := 0.0
	for _, s := range g.sumSqs {
		sumSq += s
	}
	scale := g.lead.ClipScale(sumSq)
	// Step: every member advances its step clocks (owners and idle
	// members alike, keeping the R trainers' step counters and Adam
	// clocks in lockstep), then owners scale, step and finish their
	// shards.
	g.eachMember(func(_ int, m *member, lo, hi int) {
		m.BeginStep()
		if scale != 1 {
			t0 := g.rec.Now()
			for st := lo; st < hi; st++ {
				m.ScaleStage(st, scale)
			}
			m.track.Span(trace.NameCommitScale, t0, lo, -1, 0)
		}
		t0 := g.rec.Now()
		for st := lo; st < hi; st++ {
			m.StepStage(st)
		}
		m.track.Span(trace.NameCommitStep, t0, lo, -1, 0)
		t0 = g.rec.Now()
		for st := lo; st < hi; st++ {
			m.FinishStage(st)
		}
		m.track.Span(trace.NameCommitFinish, t0, lo, -1, 0)
	})
	// Gather: the inverted broadcast — every member imports each stage
	// from the owner's post-step state, in stage order, pushing its own
	// version queue. Owner states are read once, before the fan-out: for
	// in-process owners that is the same live-tensor read as before, and
	// for remote owners it fetches the stage exactly once into a stable
	// buffer that the concurrent importers then only read.
	t0 = g.rec.Now()
	states := make([][]*tensor.Tensor, p)
	var gatherBytes int64
	for st := 0; st < p; st++ {
		states[st] = g.members[g.plan.OwnerOf(st)].StageState(st)
		if g.rec != nil {
			gatherBytes += tensorsBytes(states[st])
		}
	}
	g.eachMember(func(i int, m *member, _, _ int) {
		for st := 0; st < p; st++ {
			if g.plan.OwnerOf(st) != i && states[st] != nil {
				m.ImportStageState(st, states[st])
			}
		}
	})
	ltk.Span(trace.NameGather, t0, -1, -1, gatherBytes)
	if m, err := g.firstFault(); m != nil {
		// Step clocks have advanced and a dead owner's stepped shard is
		// unrecoverable mid-commit: survivors hold a mix of pre- and
		// post-step stages. Only a checkpoint restore recovers this.
		return fmt.Errorf("replica %d: %w", m.id, err)
	}
	return nil
}

// eachMember runs fn concurrently for every active member with its
// position and owner shard, waiting for all: one goroutine per replica,
// each touching only its own trainer's state (plus read-only peers during
// the gather).
func (g *Group) eachMember(fn func(i int, m *member, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(g.active)
	for i, m := range g.members[:g.active] {
		go func() {
			defer wg.Done()
			lo, hi := g.plan.Shard(i)
			fn(i, m, lo, hi)
		}()
	}
	wg.Wait()
}

// LossSum folds the per-microbatch losses in global microbatch order —
// replica chunks are contiguous, so replica order then chunk order is the
// serial order — and returns the sum (the caller divides by N).
func (g *Group) LossSum() float64 {
	sum := 0.0
	for _, m := range g.members[:g.active] {
		for _, l := range m.chunk.losses[:m.chunk.n] {
			sum += l
		}
	}
	return sum
}

// chunk is one member's share of the minibatch in flight: where it
// starts, and the losses and gradient exports it produced — captured by
// a Compute wrapper for an in-process member, decoded from the RunChunk
// reply for a remote one — where Reduce and LossSum read them.
type chunk struct {
	p       int
	exports bool // followers stage per-microbatch gradients; the leader accumulates in place

	// Per-minibatch state, written by begin before the chunk runs and read
	// by the inner engine's workers (happens-before via its channels).
	start  int // global microbatch counter of the chunk start
	n      int // chunk length
	async  bool
	losses []float64
	grads  [][][]*tensor.Tensor // [k][stage][param] exported grads (followers)
}

// begin resets the staging for a chunk of n microbatches starting at
// global counter start.
func (c *chunk) begin(start, n int, async bool) {
	c.start, c.n, c.async = start, n, async
	for len(c.losses) < n {
		c.losses = append(c.losses, 0)
	}
	if c.exports {
		for len(c.grads) < n {
			c.grads = append(c.grads, make([][]*tensor.Tensor, c.p))
		}
	}
}

// Compute is the per-replica host wrapper a replicated engine hands to
// that replica's inner engine. Every slot call is the replica's own
// (the embedded engine.Host); the wrapper frames the chunk (global
// microbatch base, leader's epoch phase), captures per-microbatch losses,
// and on followers exports per-(microbatch, stage) gradients. It has no commit surface: an inner engine runs chains only,
// and the one commit belongs to the group after the all-reduce.
type Compute struct {
	engine.Host
	loc Local
	chunk
}

func newCompute(m Local, leader bool) *Compute {
	return &Compute{Host: m, loc: m, chunk: chunk{p: m.Stages(), exports: !leader}}
}

// NewCompute wraps a follower member for chunk execution outside a
// Group — the worker-process side of the remote protocol, where the
// serve loop drives its local follower through an inner engine and ships
// the captured losses and gradient exports back (transport.ServeConn).
func NewCompute(m Local) *Compute { return newCompute(m, false) }

// BeginChunk resets the wrapper for a chunk of n microbatches starting
// at global microbatch counter start, and puts the replica in the leader's
// epoch phase.
func (c *Compute) BeginChunk(start, n int, async bool) {
	c.loc.SetAsync(async)
	c.begin(start, n, async)
}

// MicroBase returns the global microbatch counter of this replica's
// chunk, so every slot sees the same global s as a single-replica run.
func (c *Compute) MicroBase() int { return c.start }

// Losses returns the chunk's captured per-microbatch losses, in chunk
// order.
func (c *Compute) Losses() []float64 { return c.losses[:c.n] }

// Grads returns the chunk's exported per-(microbatch, stage) gradients.
func (c *Compute) Grads() [][][]*tensor.Tensor { return c.grads[:c.n] }

// Tracer implements trace.Carrier by delegating to the wrapped member
// (the follower trainer's host), so an inner engine driving this
// replica's pipeline finds the shared recorder and the replica's index.
func (c *Compute) Tracer() (*trace.Recorder, int) {
	return trace.FromCarrier(c.loc)
}

// StageForward runs the replica's forward slot and records the
// microbatch's loss at the last stage.
func (c *Compute) StageForward(s, stage int) float64 {
	loss := c.loc.StageForward(s, stage)
	if stage == c.p-1 {
		c.losses[s-c.start] = loss
	}
	return loss
}

// StageBackward runs the replica's backward slot and, on followers,
// immediately exports the stage's just-accumulated gradient into the
// per-microbatch staging area (zeroing the stage accumulator, so the next
// microbatch again accumulates from zero).
func (c *Compute) StageBackward(s, stage int) {
	c.loc.StageBackward(s, stage)
	if c.exports {
		k := s - c.start
		c.grads[k][stage] = c.loc.TakeStageGrads(stage, c.grads[k][stage])
	}
}
