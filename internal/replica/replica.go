// Package replica implements the coordination layer for multi-replica
// data-parallel training: R pipeline replicas (each a full trainer weight
// partition driven by the run's execution engine) split a
// minibatch's microbatches between them, and a deterministic reduce
// folds their gradients into the leader replica in global microbatch
// order before one shared optimizer step — the PipeDream-style hybrid of
// pipeline and data parallelism. A trainer runs its minibatches through
// its Group (Stream). A group of one — a trainer alone, or a group that
// evictions have left with only its leader — commits inside its
// engine's stream: each stage's update is a job in the stage's own
// serialization domain (engine.Commit), so a stream does not drain
// between its minibatches. A larger group runs a minibatch at a time: Minibatch
// (every replica's chunk, then the reduce), then Commit, which commits
// replica-sharded, ZeRO / PipeDream-2BW style: an engine.CommitPlan assigns
// each stage to a replica owner, the leader's reduced gradients scatter
// to their owners, every owner steps its shard against its local copy of
// the optimizer state — one StepStage call per stage, under the clip
// scale and the epoch phase its chunk arrived with, through the same
// engine.Commits jobs a group of one runs — and the stepped masters
// all-gather back, each importer replaying the rest of the owner's step
// (T2 and the version push) itself, so the commit tail never runs
// serially on the leader.
// Without fault tolerance a follower holds the optimizer moments of its
// own shard only; with it, every replica mirrors all of them, which is
// what lets the group lose a member at any point of the commit.
//
// # Determinism
//
// The reduction is bit-identical to a single-replica run over the same
// global microbatch set, for any R. Four properties make that possible:
//
//  1. Chunks are contiguous and ordered: the followers take them in group
//     order and the leader takes the last, so chunk c covers global
//     microbatches [start_c, start_c+n_c) with start_{c+1} = start_c+n_c,
//     and reading the members in that order reproduces the global
//     microbatch order.
//  2. The member holding chunk 0 accumulates in place, as a single
//     replica does, so its sum over the chunk is bitwise the serial
//     fold's prefix. It ships that one prefix per stage.
//  3. Every other member — the leader included — exports one gradient
//     per (microbatch, stage), computed into a zeroed accumulator. By the
//     nn accumulation contract (see nn.Param.Grad), a layer adds its
//     whole per-call contribution with exactly one add per element, so
//     the exported value is bitwise the same scalar a serial run would
//     have added to its running sum. The leader's exports never leave its
//     process.
//  4. Every floating-point add of the reduce happens at the root: the
//     leader swaps the prefix in as its accumulators and folds the other
//     exports in global microbatch order, one add per element.
//
// The fold order is therefore a pure left fold over microbatches 0..N−1
// regardless of R — exactly the serial engine's order.
//
// # Members and membership
//
// The package also owns what a replica member is and who is in the run.
// Member is the small contract every replica honours wherever it lives;
// a member is then either Local (its pipeline runs in this process,
// through a Compute wrapper and the run's engine) or Remote (it sits
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
	// SetStageGrads makes bufs' values the stage's gradient accumulators,
	// with no arithmetic — the scatter half of the sharded commit. An
	// in-process member takes bufs' tensors themselves and hands its old
	// accumulators back in bufs, in exchange; a remote one ships a copy
	// and leaves bufs as they were. Either way every tensor keeps one
	// holder.
	SetStageGrads(stage int, bufs []*tensor.Tensor)
	// PrepareStage and StepStage are the commit phases a stage's owner
	// runs against its own parameter copies and optimizer state
	// (Group.Commit). They touch only their stage, so distinct stages may
	// run them concurrently. StepStage reads the update's step index from
	// the stage's own weight-version ring: its newest version.
	PrepareStage(stage, nMicro int) float64
	StepStage(stage int, scale float64)
	// StageState returns what the gather moves of the stage's live
	// post-step state: the masters, then the optimizer moments under the
	// fault-tolerant layout. The returned tensors are read-only.
	StageState(stage int) []*tensor.Tensor
	// ImportStageState copies an owner's StageState over the stage and
	// replays the rest of the owner's step — the T2 update from the
	// member's own δ and its newest weight version, then the push of the
	// next version — the gather half of the sharded commit. Every member
	// pushes every version, so those inputs are the owner's.
	ImportStageState(stage int, src []*tensor.Tensor)
	// SetStageState overwrites the stage's whole state with src, in the
	// layout of Leader.HandoffState, and pushes the stage's next weight
	// version — one stage of a handoff.
	SetStageState(stage int, src []*tensor.Tensor)
	// RestoreVersions replaces a stage's weight-version ring wholesale
	// (base is its oldest version number, snaps the versions oldest to
	// newest), so historical-version installs after a restore or a
	// handoff are bit-identical to the leader's — and so is the step
	// count, the newest version. The epoch phase arrives with every chunk.
	RestoreVersions(stage, base int, snaps [][]*tensor.Tensor)
}

// Local is a member whose pipeline lives in this process: the
// engine.Host its engine drives through a Compute wrapper, plus the
// chunk's epoch phase and the two gradient moves that never cross the wire.
// internal/core's host is the implementation — for the leader, for
// in-process followers, and for the follower a worker process serves.
type Local interface {
	Member
	engine.Host
	// Engine returns the engine that runs the member's chunks: its
	// trainer's, which other members may share.
	Engine() engine.Engine
	// SetAsync sets the epoch phase of the chunk the member is about to
	// run: whether its slots install delayed weights and its commit
	// T1-reschedules. It arrives with the chunk — the leader's view is
	// authoritative for all replicas.
	SetAsync(async bool)
	// TakeStageGrads moves the stage's accumulated parameter gradients
	// out by exchange: the accumulators land in bufs (allocated when bufs
	// is nil) and bufs' old tensors, zeroed, become the accumulators. No
	// element is copied, so a tensor swapped in must have no other
	// holder. It must only be called from the goroutine that owns the
	// stage's slots.
	TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor
	// FoldStageGrads adds previously exported buffers into the stage's
	// accumulators with exactly one add per element.
	FoldStageGrads(stage int, bufs []*tensor.Tensor)
}

// Remote is a member hosted behind a connection
// (transport.RemoteMember). Its chunk runs out of process: the group
// ships it in one RunChunk call — the worker drives it through its own
// engine — and gets back exactly the losses and gradient exports a local
// follower's Compute would have captured: one row per microbatch, or,
// for chunk 0 (first), the one row of its in-place prefix. Its
// collectives block on I/O, so BindContext binds each minibatch's
// context to them; its failures are sticky — the first
// transport error latches, every later operation fails fast, and Err
// reports it after each collective phase; and it can sit out of the
// group as a standby: Rearm reports that a demoted member's late
// in-flight reply has drained, resetting its straggler accounting for
// readmission as it does. SetID tells the proxy the stable id the group gave
// its record, once, as the record enters the table — the label of its
// wire track and error text. Only a Remote can leave the group (see
// Group.Transition): an in-process member has no clean failure point.
type Remote interface {
	Member
	io.Closer
	SetID(id int)
	RunChunk(ctx context.Context, start int, async, first bool, micros [][]int) (losses []float64, grads [][][]*tensor.Tensor, err error)
	BindContext(ctx context.Context)
	Err() error
	Rearm() bool
}

// Leader is the host of a trainer that leads a replica group: what the
// group reads the run's epoch phase and clip factor from, and, for a
// group of one, the commit its engine runs inside the stream.
type Leader interface {
	Local
	engine.Commit
	// Async reports whether the current epoch runs asynchronously (false
	// for GPipe and during T3 warmup epochs): the phase every member's
	// chunk is framed with.
	Async() bool
	// HandoffState returns the stage's whole live state in the layout a
	// handoff ships (Member.SetStageState): the masters, then T2 δ and
	// corrected when enabled, then the optimizer moments under the
	// fault-tolerant layout. The returned tensors are read-only.
	HandoffState(stage int) []*tensor.Tensor
}

// Group coordinates one leader and its followers, if any, and is the one
// place that knows who is in the run: it holds the membership table
// (membership.go), splits each minibatch into contiguous per-replica
// chunks, runs every member's chunk, and runs the reduce and the
// replica-sharded commit. A trainer builds its Group once and keeps it for
// life.
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
	// commits runs each stage's phases on its owner (ownerCommit).
	owners  []int
	commits *engine.Commits

	scatter [][]*tensor.Tensor // per-stage staging for the grad scatter

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
		scatter: make([][]*tensor.Tensor, p)}
	g.commits = engine.NewCommits(ownerCommit{lead, g}, p)
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

// begin prepares the group for one minibatch: it splits the N microbatch
// index sets into R contiguous, ordered chunks (engine.CommitPlan's
// split) — the followers take them in group order and the leader the
// last, so chunk 0, the one that accumulates in place, is never the
// leader's in a group of more than one — snapshots the leader's epoch
// phase (async) and microbatch base, resets the per-replica loss and
// gradient staging, and binds ctx into remote members so cancellation
// reaches their blocking I/O. It returns the chunk for each replica.
func (g *Group) begin(ctx context.Context, micros [][]int) [][][]int {
	r := g.active
	base := g.lead.MicroBase()
	async := g.lead.Async()
	chunks := make([][][]int, r)
	plan := engine.NewCommitPlan(len(micros), r)
	for i, m := range g.members[:r] {
		c := (i + r - 1) % r
		lo, hi := plan.Shard(c)
		chunks[i] = micros[lo:hi]
		if m.remote != nil {
			m.chunk.begin(base+lo, hi-lo, async, c == 0)
			m.remote.BindContext(ctx)
		} else {
			m.comp.BeginChunk(base+lo, hi-lo, async, c == 0)
		}
	}
	return chunks
}

// Stream runs minibatches — mbs[j] holds minibatch j's microbatch index
// sets — to their committed updates and returns the mean microbatch loss
// of each it committed. A group of one is a single trainer: its engine
// streams every minibatch of mbs through the leader, whose commit runs
// inside the stream (engine.Commit), so nothing drains between
// minibatches. A larger group runs only mbs[0], as one attempt: every
// member's chunk, the reduce (Minibatch), then the replica-sharded commit
// (Commit). The errors are theirs; a member failure that leaves the
// commit standing comes back with the minibatch's loss.
func (g *Group) Stream(ctx context.Context, mbs [][][]int) ([]float64, error) {
	if g.active == 1 {
		g.lead.SetAsync(g.lead.Async())
		return g.members[0].eng.Stream(ctx, g.lead, mbs, g.lead)
	}
	loss, err := g.Minibatch(ctx, mbs[0])
	if err != nil {
		return nil, err
	}
	if err := g.Commit(len(mbs[0])); err != nil {
		var me *MemberError
		if errors.As(err, &me) && !me.Replay {
			return []float64{loss}, err
		}
		return nil, fmt.Errorf("replica: commit: %w", err)
	}
	return []float64{loss}, nil
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
// (eachMember) — in-process members through their engine, remote
// members in one RunChunk round trip.
//
// When it returns nil every replica has drained and restored its master
// weights (the engine contract). Whatever it returns, every in-process
// member's stage accumulators are clean: a backward slot outside chunk 0
// exports-and-zeroes, and chunk 0's prefix is taken out when the chunk
// ends (Compute.EndChunk), as a worker does before it replies. A
// divergence anywhere matches the serial run — the bad microbatch's loss
// is computed from identical weights and samples there too. A member
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

// reduce folds every member's gradients into the leader's accumulators
// in global microbatch order: it swaps in the prefix of the member
// holding chunk 0 — group position 1, or the leader alone in a group of
// one — then folds the exports of the members after it, the leader's
// own last, one add per element. Stages fold concurrently; within a stage
// the order is fixed, so the result is bit-identical to serial
// single-replica accumulation. The reduce's span counts only what crossed
// a member boundary: the leader's exports never leave its process.
func (g *Group) reduce() {
	r := g.active
	t0 := g.rec.Now()
	var wg sync.WaitGroup
	wg.Add(g.p)
	for st := 0; st < g.p; st++ {
		go func() {
			defer wg.Done()
			g.lead.SetStageGrads(st, g.members[1%r].chunk.grads[0][st])
			for j := 2; j <= r; j++ {
				for _, row := range g.members[j%r].chunk.exports() {
					g.lead.FoldStageGrads(st, row[st])
				}
			}
		}()
	}
	wg.Wait()
	if g.rec != nil {
		var bytes int64
		for _, m := range g.members[1:r] {
			for _, row := range m.chunk.exports() {
				for _, stage := range row {
					bytes += tensorsBytes(stage)
				}
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
// ⌈P/R⌉ stages. Each member runs its shard's phases as one
// engine.Commits job on its own goroutine (eachMember), routed to the
// owner by ownerCommit. A group of one never calls it: it commits inside
// its stream (Stream).
//
// Determinism (bit-identical to a single replica, and hence to
// single-replica Reference):
//
//  1. The scatter moves bits without arithmetic: a swap in process, a
//     copy over the wire. All gradient arithmetic stayed at the tree root
//     (reduce); an owner's accumulator receives the leader's reduced
//     gradient bitwise.
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
//     folded st = 0..P−1 on the orchestrator (engine.Commits.Scale),
//     whoever computed them, and the resulting scale is computed once.
//  4. The gather is a pure copy and a replay. Every member imports the
//     masters (and, under fault tolerance, the moments) of each stage it
//     does not own from the owner, then replays the rest of the owner's
//     step: T2 from its own δ and its newest ring version — the owner's
//     inputs, since every member pushes every version and imports every
//     master, and every T2 kernel bit-matches its Go twin — and the push
//     of its version queue, exactly once per stage, so every replica's
//     version history replays identically.
//
// A member failure surfaces as *MemberError when the member can leave the
// group (see classify) and as a plain wrapped error otherwise; the group
// must not commit again after a plain error. Up to the prepare phase no
// member has pushed a version, so the minibatch replays. After it, a
// fault-tolerant group finishes the step without the dead member (see
// takeOver), and the member leaves without a replay.
func (g *Group) Commit(nMicro int) error {
	p := g.p
	// Scatter: move the leader's reduced gradients to the plan's owners.
	// TakeStageGrads swaps them into g.scatter, so gradient ownership moves
	// wholesale. An in-process owner swaps them on into its accumulators; a
	// remote owner gets a copy, and g.scatter keeps the reduced gradient
	// until the next commit, for a takeover (only a remote owner can die).
	t0 := g.rec.Now()
	var scatterBytes int64
	for st := 0; st < p; st++ {
		g.owners[st] = g.plan.OwnerOf(st)
		if o := g.owners[st]; o != 0 {
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
		g.commits.Job(g.commitTrack(m), lo, hi, nMicro)
	})
	if m, err := g.firstFault(); m != nil {
		// No member has stepped a stage yet, so a failure up to Prepare
		// replays the whole minibatch over the survivors (ResetGrads
		// first — the scatter moved gradients).
		return g.classify(m, err, true)
	}
	scale := g.commits.Scale()
	// Step: owners step their shards' stages, each pushing the stage's
	// next version.
	g.eachMember(func(_ int, m *member, lo, hi int) {
		g.commits.Step(g.commitTrack(m), lo, hi, scale)
	})
	// Gather: every member imports each stage's masters from the owner, in
	// stage order, and replays the step's tail itself. Owner states
	// are read once, before the fan-out: for in-process owners that is a
	// live-tensor read, and for remote owners it fetches the stage exactly
	// once into a stable buffer that the concurrent importers then only
	// read.
	t0 = g.rec.Now()
	states := make([][]*tensor.Tensor, p)
	for st := 0; st < p; st++ {
		states[st] = g.members[g.owners[st]].StageState(st)
	}
	g.takeOver(nMicro, scale, states)
	var gatherBytes int64
	if g.rec != nil {
		// Each stage's masters move to every member but its owner.
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
// clip scale is the one the orchestrator computed. The re-step runs the
// commit's own Job and Step on the shard, now owned by the leader, on the
// leader's collectives track. Without fault tolerance the dead owner's
// moments are gone and nothing is taken over: its stages stay unimported
// and the commit ends in a plain error.
func (g *Group) takeOver(nMicro int, scale float64, states [][]*tensor.Tensor) {
	if !g.ft {
		return
	}
	for i, m := range g.members[1:g.active] {
		if m.err() == nil {
			continue
		}
		lo, hi := g.plan.Shard(i + 1)
		for st := lo; st < hi; st++ {
			g.lead.SetStageGrads(st, g.scatter[st])
			g.owners[st] = 0
		}
		g.commits.Job(g.track(g.members[0]), lo, hi, nMicro)
		g.commits.Step(g.track(g.members[0]), lo, hi, scale)
		for st := lo; st < hi; st++ {
			states[st] = g.lead.StageState(st)
		}
	}
}

// ownerCommit is the group's commit as engine.Commits runs it: each
// stage's phases go to the stage's owner (Group.owners), and the clip
// factor and the wait rule are the leader's. It always folds, because
// every owner prepares before any steps.
type ownerCommit struct {
	Leader
	g *Group
}

func (ownerCommit) Clips() bool { return true }

func (o ownerCommit) PrepareStage(stage, nMicro int) float64 {
	return o.g.members[o.g.owners[stage]].PrepareStage(stage, nMicro)
}

func (o ownerCommit) StepStage(stage int, scale float64) {
	o.g.members[o.g.owners[stage]].StepStage(stage, scale)
}

// commitTrack returns the track member m's commit jobs are recorded on:
// a remote member's collectives track, or an in-process member's first
// worker track.
func (g *Group) commitTrack(m *member) *trace.Track {
	if m.remote != nil {
		return g.track(m)
	}
	return engine.WorkerTrack(m.comp, 0)
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

// lossSum folds the per-microbatch losses in global microbatch order —
// chunks are contiguous, so chunk order (group position 1 on, then the
// leader) then order within a chunk is the serial order — and returns the
// sum (the caller divides by N).
func (g *Group) lossSum() float64 {
	sum := 0.0
	for j := 1; j <= g.active; j++ {
		c := g.members[j%g.active].chunk
		for _, l := range c.losses[:c.n] {
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
	p int

	// Per-minibatch state, written by begin before the chunk runs and read
	// by the member engine's workers (happens-before via its channels).
	start  int // global microbatch counter of the chunk start
	n      int // chunk length
	async  bool
	first  bool // chunk 0: it accumulates in place and exports one prefix
	losses []float64
	grads  [][][]*tensor.Tensor // [row][stage][param] exported grads
}

// begin resets the staging for a chunk of n microbatches starting at
// global counter start.
func (c *chunk) begin(start, n int, async, first bool) {
	c.start, c.n, c.async, c.first = start, n, async, first
	for len(c.losses) < n {
		c.losses = append(c.losses, 0)
	}
	for len(c.grads) < c.rows() {
		c.grads = append(c.grads, make([][]*tensor.Tensor, c.p))
	}
}

// rows returns how many gradient export rows the chunk produces: one per
// microbatch, or chunk 0's one prefix.
func (c *chunk) rows() int {
	if c.first {
		return 1
	}
	return c.n
}

// exports returns the chunk's gradient export rows.
func (c *chunk) exports() [][][]*tensor.Tensor { return c.grads[:c.rows()] }

// Compute is the per-replica host wrapper an in-process replica's engine
// drives. Every slot call is the replica's own (the embedded
// engine.Host); the wrapper frames the chunk (global microbatch base,
// leader's epoch phase), captures per-microbatch losses, and exports the
// chunk's gradients: per (microbatch, stage), or chunk 0's one prefix
// per stage. It has no commit surface: an engine runs chains only, and
// the one commit belongs to the group after the reduce.
type Compute struct {
	engine.Host
	loc Local
	chunk
}

// NewCompute wraps a member for chunk execution: in a Group, and outside
// one on the worker-process side of the remote protocol, where the serve
// loop drives its local follower through its engine and ships the
// captured losses and gradient exports back (transport.ServeConn).
func NewCompute(m Local) *Compute {
	return &Compute{Host: m, loc: m, chunk: chunk{p: m.Stages()}}
}

// BeginChunk resets the wrapper for a chunk of n microbatches starting
// at global microbatch counter start, puts the replica in the leader's
// epoch phase, and says whether the chunk is chunk 0.
func (c *Compute) BeginChunk(start, n int, async, first bool) {
	c.loc.SetAsync(async)
	c.begin(start, n, async, first)
}

// EndChunk closes the chunk once its engine has drained it, whatever the
// outcome: chunk 0's in-place sum moves out of the stage accumulators
// into its one export row, so the member's accumulators are zero again
// before its next chunk — after a failed chunk, or a straggler's late
// one, too.
func (c *Compute) EndChunk() {
	if c.first {
		for st := 0; st < c.p; st++ {
			c.grads[0][st] = c.loc.TakeStageGrads(st, c.grads[0][st])
		}
	}
}

// MicroBase returns the global microbatch counter of this replica's
// chunk, so every slot sees the same global s as a single-replica run.
func (c *Compute) MicroBase() int { return c.start }

// Losses returns the chunk's captured per-microbatch losses, in chunk
// order.
func (c *Compute) Losses() []float64 { return c.losses[:c.n] }

// Grads returns the chunk's gradient exports (EndChunk first).
func (c *Compute) Grads() [][][]*tensor.Tensor { return c.exports() }

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

// StageBackward runs the replica's backward slot and, outside chunk 0,
// immediately exports the stage's just-accumulated gradient into the
// per-microbatch staging area by swap (the row's old buffer, zeroed,
// becomes the stage accumulator, so the next microbatch again accumulates
// from zero).
func (c *Compute) StageBackward(s, stage int) {
	c.loc.StageBackward(s, stage)
	if !c.first {
		k := s - c.start
		c.grads[k][stage] = c.loc.TakeStageGrads(stage, c.grads[k][stage])
	}
}
