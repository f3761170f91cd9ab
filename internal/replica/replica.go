// Package replica implements the coordination layer for multi-replica
// data-parallel training: R pipeline replicas (each a full trainer weight
// partition driven by its own copy of the run's execution engine) split a
// minibatch's microbatches between them, and a deterministic tree
// all-reduce folds the per-microbatch gradients into the leader replica
// before one shared optimizer step — the PipeDream-style hybrid of
// pipeline and data parallelism. A trainer runs each minibatch through
// its Group — of one when it trains alone: Minibatch (every replica's
// chunk, then the reduce), then Commit. The step commits replica-sharded,
// ZeRO / PipeDream-2BW style (Group.Commit): an engine.CommitPlan assigns
// each stage to a replica owner, the leader's reduced gradients scatter
// to their owners, every owner steps its shard against its local copy of
// the optimizer state — one StepStage call per stage, under the clip
// scale and the epoch phase its chunk arrived with, over its engine's
// workers when it has them (engine.Pool) — and the stepped weights
// all-gather back, so the commit tail never runs serially on the leader.
// Without fault tolerance a follower holds the optimizer moments of its
// own shard only; with it, every replica mirrors all of them, which is
// what lets the group lose a member at any point of the commit.
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
// through a Compute wrapper and its own engine) or Remote (it sits
// behind a connection and can therefore fail, straggle, stand by and
// leave). Group holds the one membership table — a record per member
// with a stable id — and Group.Transition is the one operation that
// changes it: eviction, demotion, join and rejoin are its edges
// (membership.go). A member keeps no step clock of its own: version v of
// a stage's weights is the state after v updates, so its rings' newest
// version is the step count, and the handoff that gives it the leader's
// state and rings gives it the leader's clock too.
package replica

import (
	"context"
	"errors"
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
	// PrepareStage and StepStage are the commit phases a stage's owner
	// runs against its own parameter copies and optimizer state
	// (Group.Commit). They touch only their stage, so distinct stages may
	// run them concurrently. StepStage reads the update's step index from
	// the stage's own weight-version ring: its newest version.
	PrepareStage(stage, nMicro int) float64
	StepStage(stage int, scale float64)
	// StageState returns the stage's live post-step state tensors
	// (masters, then T2 δ and corrected when enabled, then the optimizer
	// moments under the fault-tolerant layout) in a fixed layout; the
	// returned tensors are read-only for the gather.
	StageState(stage int) []*tensor.Tensor
	// ImportStageState copies a stage's post-step state from the owner's
	// StageState layout and pushes the replica's next weight version for
	// that stage — the gather half of the sharded commit, and one stage of
	// a handoff.
	ImportStageState(stage int, src []*tensor.Tensor)
	// RestoreVersions replaces a stage's weight-version ring wholesale
	// (base is its oldest version number, snaps the versions oldest to
	// newest), so historical-version installs after a restore or a
	// handoff are bit-identical to the leader's — and so is the step
	// count, the newest version. The epoch phase arrives with every chunk.
	RestoreVersions(stage, base int, snaps [][]*tensor.Tensor)
}

// Local is a member whose pipeline lives in this process: the
// engine.Host its own engine drives through a Compute wrapper, plus the
// chunk's epoch phase and the two gradient moves that never cross the wire.
// internal/core's host is the implementation — for the leader, for
// in-process followers, and for the follower a worker process serves.
type Local interface {
	Member
	engine.Host
	// Engine returns the engine that runs the member's chunks: its own
	// trainer's, never shared with another member.
	Engine() engine.Engine
	// SetAsync sets the epoch phase of the chunk the member is about to
	// run: whether its slots install delayed weights and its commit
	// T1-reschedules. It arrives with the chunk — the leader's view is
	// authoritative for all replicas.
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
// engine — and gets back exactly the losses and per-(microbatch,
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

// Leader is the host of a trainer that leads a replica group: what the
// group reads the run's epoch phase and clip factor from.
type Leader interface {
	Local
	// Async reports whether the current epoch runs asynchronously (false
	// for GPipe and during T3 warmup epochs): the phase every member's
	// chunk is framed with.
	Async() bool
	// ClipScale converts the global gradient sum-of-squares into the
	// clipping factor, once per commit.
	ClipScale(sumSq float64) float64
}

// Group coordinates one leader and its followers, if any, and is the one
// place that knows who is in the run: it holds the membership table
// (membership.go), splits each minibatch into contiguous per-replica
// chunks, runs every member's chunk, and runs the reduce and the
// replica-sharded commit. A trainer builds its Group once and keeps it for
// life; each in-process member's engine starts on its first chunk, and each
// Run stops them.
type Group struct {
	lead Leader
	p    int

	// members is the membership table. members[:active] are the active
	// members in group position order — members[0] is the leader — and
	// members[active:] are the standbys. Only Transition reorders it.
	members []*member
	active  int
	nextID  int

	plan engine.CommitPlan // stage→position owners over the active members
	ft   bool              // full moments everywhere: the group may lose a member

	// owners is the commit in flight's stage→position owner: the plan's,
	// or the leader for the shard of a follower that died mid-step.
	owners []int

	scatter [][]*tensor.Tensor // per-stage staging for the grad scatter
	sumSqs  []float64          // per-stage clip-norm partials

	// rec is the leader's trace recorder (nil when tracing is off). Each
	// member has its own collectives track: the orchestrator
	// goroutine writes the leader's (reduce, scatter, gather) and each
	// eachMember goroutine writes only its own member's, with the phases'
	// WaitGroup barriers ordering the handoffs.
	rec *trace.Recorder

	demotions int
}

// track returns member m's collectives track, registered on first use.
func (g *Group) track(m *member) *trace.Track {
	return g.rec.Track(m.id, trace.TidCollectives, "collectives")
}

// NewGroup builds the group of a leader, alone and active under id 0.
// Followers enter it as every member does, parked as standbys (Park) and
// admitted by a state handoff — the initial ones take ids 1..R−1 in the
// order they are parked. faultTolerant reports the mirrored-moment layout
// that lets the group survive losing a member.
func NewGroup(lead Leader, faultTolerant bool) *Group {
	p := lead.Stages()
	g := &Group{lead: lead, p: p, ft: faultTolerant, owners: make([]int, p),
		scatter: make([][]*tensor.Tensor, p), sumSqs: make([]float64, p)}
	g.rec, _ = trace.FromCarrier(lead)
	rec, _ := g.enter(lead) // a Leader is Local
	g.move(rec, Active)
	return g
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

// Stop stops the active in-process members' engines, which their next
// chunks start again. The group itself — and any standby parked in it —
// belongs to the trainer and outlives the run.
func (g *Group) Stop() {
	for _, m := range g.members[:g.active] {
		m.stop()
	}
}

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

// Minibatch runs one attempt at the minibatch's compute phase over the
// active members and returns its mean microbatch loss, with every
// follower's gradients folded into the leader (reduce) for the Commit
// that follows. A member failure the run can survive comes back as a
// *MemberError for the trainer to apply (see runChunks).
func (g *Group) Minibatch(ctx context.Context, micros [][]int) (float64, error) {
	if err := g.runChunks(ctx, micros); err != nil {
		return 0, err
	}
	g.reduce()
	return g.lossSum() / float64(len(micros)), nil
}

// runChunks runs begin, then every active member's chunk concurrently
// (eachMember) — in-process members through their own engine, remote
// members in one RunChunk round trip.
//
// When it returns nil every replica has drained and restored its master
// weights (the engine contract), and follower stage accumulators are
// clean because every follower backward slot exports-and-zeroes. A
// divergence anywhere matches the serial run — the bad microbatch's loss
// is computed from identical weights and samples there too — and the
// leader's partial accumulation is dropped by the trainer. A member
// failure comes back as *MemberError only when no other member failed in
// a way that aborts the run (a cancel or a leader failure always does).
// A straggler outranks a dead member, and either is handled one per
// attempt: the other resurfaces on the replay — a second straggler's
// RunChunk fails fast while it drains, a dead member through its sticky
// error. The member left with its chunk, so the replay flag is set.
func (g *Group) runChunks(ctx context.Context, micros [][]int) error {
	chunks := g.begin(ctx, micros)
	errs := make([]error, g.active)
	g.eachMember(func(i int, m *member, _, _ int) { errs[i] = m.run(ctx, chunks[i]) })
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

// reduce performs the deterministic tree all-reduce: a binary-tree gather
// of the followers' ordered per-microbatch gradient lists (rounds of
// pairwise list handoffs — the communication schedule), then the root
// fold into the leader's accumulators in global microbatch order. Stages
// are folded concurrently; within a stage the order is fixed, so the
// result is bit-identical to serial single-replica accumulation. A group
// of one has nothing to fold.
func (g *Group) reduce() {
	r := g.active
	if r == 1 {
		return
	}
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
		g.collective(trace.NameReduce, t0, bytes)
	}
}

// collective records a reduce, scatter or gather span on the leader's
// collectives track when it moved bytes.
func (g *Group) collective(name string, t0, bytes int64) {
	if bytes > 0 {
		g.track(g.members[0]).Span(name, t0, -1, -1, bytes)
	}
}

// Commit commits one shared optimizer step for the minibatch that
// Minibatch just folded into the leader, ZeRO / PipeDream-2BW style. The
// commit plan assigns each stage to a replica owner (contiguous shards,
// sizes differing by at most one); each owner runs the commit phases for
// its shard against its own parameter copies and its own copy of the
// optimizer state, so no replica — leader included — steps more than
// ⌈P/R⌉ stages (runShard). A group of one is a single trainer's commit:
// the leader owns every stage, and nothing is scattered or gathered.
//
// Determinism (bit-identical to a single replica, and hence to
// single-replica Reference):
//
//  1. The scatter is a pure copy. All gradient arithmetic stayed at the
//     tree root (reduce); an owner's accumulator receives the leader's
//     reduced gradient bitwise.
//  2. Per-stage phase arithmetic is location-independent. PrepareStage and
//     StepStage touch only the stage's parameter range, and every input —
//     masters (gather-synced), reduced gradients (scattered), moment state
//     (stepped only by the owner, every step, from identical inputs), the
//     step index (the stage ring's newest version, which every member
//     pushes once per stage per commit), τ delays and
//     schedules (identical by construction), the epoch phase (framed with
//     the member's chunk), the clip scale (an argument) — is bitwise equal
//     to the leader's, so the owner performs bitwise the arithmetic the
//     leader would have.
//  3. Cross-stage reductions keep stage order. The clip-norm partials are
//     folded st = 0..P−1 on the orchestrator, whoever computed them, and
//     the resulting scale is computed once.
//  4. The gather is a pure copy. Every member imports each stage it does
//     not own from the owner's post-step state and pushes its version
//     queue exactly once per stage, so every replica's version history
//     replays identically.
//
// A member failure surfaces as *MemberError when the member can leave the
// group (see classify) and as a plain wrapped error otherwise; the group
// must not commit again after a plain error. Up to the prepare phase no
// member has pushed a version, so the minibatch replays. After it, a
// fault-tolerant group finishes the step without the dead member (see
// takeOver), and the member leaves without a replay.
func (g *Group) Commit(nMicro int) error {
	p := g.p
	// Scatter: move the leader's reduced gradients to their owners.
	// TakeStageGrads zeroes the leader's accumulator, so gradient ownership
	// moves wholesale; g.scatter keeps the reduced gradient until the next
	// commit, for a takeover.
	t0 := g.rec.Now()
	var scatterBytes int64
	for st := 0; st < p; st++ {
		if o := g.plan.OwnerOf(st); o != 0 {
			g.scatter[st] = g.lead.TakeStageGrads(st, g.scatter[st])
			g.members[o].SetStageGrads(st, g.scatter[st])
			if g.rec != nil {
				scatterBytes += tensorsBytes(g.scatter[st])
			}
		}
	}
	g.collective(trace.NameScatter, t0, scatterBytes)
	// Prepare: owners average their shard's gradients and report the
	// per-stage clip partials.
	g.eachMember(func(_ int, m *member, lo, hi int) {
		g.runShard(m, lo, hi, trace.NameCommitPrepare, func(st int) {
			g.sumSqs[st] = m.PrepareStage(st, nMicro)
		})
	})
	if m, err := g.firstFault(); m != nil {
		// No member has stepped a stage yet, so a failure up to Prepare
		// replays the whole minibatch over the survivors (ResetGrads
		// first — the scatter moved gradients).
		return g.classify(m, err, true)
	}
	sumSq := 0.0
	for _, s := range g.sumSqs {
		sumSq += s
	}
	scale := g.lead.ClipScale(sumSq)
	// Step: owners step their shards' stages, each pushing the stage's
	// next version.
	g.eachMember(func(_ int, m *member, lo, hi int) {
		g.runShard(m, lo, hi, trace.NameCommitStep, func(st int) {
			m.StepStage(st, scale)
		})
	})
	// Gather: every member imports each stage from the owner's post-step
	// state, in stage order, pushing its own version queue. Owner states
	// are read once, before the fan-out: for in-process owners that is a
	// live-tensor read, and for remote owners it fetches the stage exactly
	// once into a stable buffer that the concurrent importers then only
	// read.
	t0 = g.rec.Now()
	states := make([][]*tensor.Tensor, p)
	for st := 0; st < p; st++ {
		g.owners[st] = g.plan.OwnerOf(st)
		states[st] = g.members[g.owners[st]].StageState(st)
	}
	g.takeOver(nMicro, scale, states)
	var gatherBytes int64
	if g.rec != nil {
		// Each stage's state moves to every member but its owner.
		for _, st := range states {
			gatherBytes += tensorsBytes(st) * int64(g.active-1)
		}
	}
	g.eachMember(func(i int, m *member, _, _ int) {
		for st := 0; st < p; st++ {
			if g.owners[st] != i && states[st] != nil {
				m.ImportStageState(st, states[st])
			}
		}
	})
	g.collective(trace.NameGather, t0, gatherBytes)
	if m, err := g.firstFault(); m != nil {
		// With fault tolerance every survivor now holds the post-step
		// state of every stage — the dead member's own shard came from its
		// fetch or from the takeover — so the minibatch stands; without
		// it, classify refuses.
		return g.classify(m, err, false)
	}
	return nil
}

// takeOver finishes, on the leader, the step of every follower of a
// fault-tolerant group that died after the prepare phase — during its
// stage steps, or while its post-step state was fetched — and makes the
// leader its shards' owner for the rest of the gather. A member that dies
// later, during its own import, needs nothing: its shard was fetched.
//
// The re-step is bitwise the one the dead owner ran (or would have run),
// because the leader holds everything that step read: its masters, T2
// state, mirrored moments and version ring of the shard are still
// pre-step (nothing has been imported yet, so each ring's newest version
// is the step index), the reduced gradient is still in g.scatter, and the
// clip scale is the one the orchestrator computed. Without fault
// tolerance the dead owner's moments are gone and nothing is taken over:
// its stages stay unimported and the commit ends in a plain error.
func (g *Group) takeOver(nMicro int, scale float64, states [][]*tensor.Tensor) {
	if !g.ft {
		return
	}
	for i, m := range g.members[1:g.active] {
		if m.err() == nil {
			continue
		}
		lo, hi := g.plan.Shard(i + 1)
		t0 := g.rec.Now()
		for st := lo; st < hi; st++ {
			g.lead.SetStageGrads(st, g.scatter[st])
			g.lead.PrepareStage(st, nMicro)
			g.lead.StepStage(st, scale)
			g.owners[st] = 0
			states[st] = g.lead.StageState(st)
		}
		g.track(g.members[0]).Span(trace.NameCommitStep, t0, lo, -1, 0)
	}
}

// eachMember runs fn concurrently for every active member with its
// position and owner shard, waiting for all: the leader's on the calling
// goroutine, one goroutine per follower, each touching only its own
// trainer's state (plus read-only peers during the gather).
func (g *Group) eachMember(fn func(i int, m *member, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(g.active - 1)
	for i := 1; i < g.active; i++ {
		go func() {
			defer wg.Done()
			lo, hi := g.plan.Shard(i)
			fn(i, g.members[i], lo, hi)
		}()
	}
	lo, hi := g.plan.Shard(0)
	fn(0, g.members[0], lo, hi)
	wg.Wait()
}

// runShard runs commit phase fn over each stage of member m's shard
// [lo, hi), recorded as a span named name. An in-process member whose
// engine is an engine.Pool splits the shard across the pool's workers
// (engine.CommitPlan again), a span per piece on its worker's track; any
// other member runs it in one call, on its worker 0 track in process and
// its collectives track when remote.
func (g *Group) runShard(m *member, lo, hi int, name string, fn func(stage int)) {
	if pool, ok := m.eng.(engine.Pool); ok && hi > lo {
		plan := engine.NewCommitPlan(hi-lo, pool.Shards())
		pool.ParallelFor(func(i int, tk *trace.Track) {
			a, b := plan.Shard(i)
			t0 := tk.Now()
			for st := lo + a; st < lo+b; st++ {
				fn(st)
			}
			tk.Span(name, t0, lo+a, -1, 0)
		})
		return
	}
	tk := g.track(m)
	if m.comp != nil {
		tr, rep := trace.FromCarrier(m.comp)
		tk = tr.Track(rep, trace.TidWorkerBase, "worker 0")
	}
	t0 := tk.Now()
	for st := lo; st < hi; st++ {
		fn(st)
	}
	tk.Span(name, t0, lo, -1, 0)
}

// lossSum folds the per-microbatch losses in global microbatch order —
// replica chunks are contiguous, so replica order then chunk order is the
// serial order — and returns the sum (the caller divides by N).
func (g *Group) lossSum() float64 {
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
// reply for a remote one — where reduce and lossSum read them.
type chunk struct {
	p       int
	exports bool // followers stage per-microbatch gradients; the leader accumulates in place

	// Per-minibatch state, written by begin before the chunk runs and read
	// by the member engine's workers (happens-before via its channels).
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

// Compute is the per-replica host wrapper an in-process replica's engine
// drives. Every slot call is the replica's own (the embedded
// engine.Host); the wrapper frames the chunk (global microbatch base,
// leader's epoch phase), captures per-microbatch losses, and on followers
// exports per-(microbatch, stage) gradients. It has no commit surface: an
// engine runs chains only, and the one commit belongs to the group after
// the all-reduce.
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
// serve loop drives its local follower through its engine and ships
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
// (the follower trainer's host), so an engine driving this
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
