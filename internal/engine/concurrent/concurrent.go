// Package concurrent implements the work-stealing segment-scheduler
// engine: W workers (New's argument, default min(P, GOMAXPROCS)) drain
// per-segment run queues of microbatch jobs on the §2 slot schedule — a
// forward token climbs stage 1→P running each stage's forward slot, an
// optional recompute token climbs again (Appendix D), and a backward token
// descends P→1 running each stage's backward slot.
//
// A segment — a run of consecutive stages, never a pinned goroutine — is
// the serialization domain. The P stages are cut into S = min(P, 2·W)
// contiguous segments of near-equal size (engine.CommitPlan's split); each
// segment owns a run queue, and an idle worker takes an entire segment
// from the run's one ready channel (the queue's active flag guarantees
// that at most one worker drains a segment at a time), runs each runnable
// job through the segment's stages by direct slot calls — ascending for a
// climb, descending for the descent — and releases it. A chain therefore
// crosses a queue only at segment edges: 2(S−1) times per microbatch
// instead of 2(P−1), which is what makes the fine-grained regime (one
// stage per weight group, P ≫ W) cheap to schedule. With P ≤ 2·W every
// segment is one stage.
//
// The workers live for a stream of minibatches (engine.Engine.Stream) and
// keep min(P, N) consecutive chains in flight across minibatch
// boundaries: the worker that completes a chain opens the next. When the
// stream carries a Commit, the backward job of a minibatch's last
// microbatch hands its chain on and then runs the segment's commit job
// (engine.Commits), so the pipeline never drains between minibatches. A
// job of minibatch k+1 that the wait rule of engine.Commit holds back
// stays queued while the jobs behind it run: a queue runs its first
// runnable job, not its first job, so a blocked job never holds back the
// one of minibatch k it waits on. A clipping commit's fold is the last
// prepare's, which queues a step job on every segment.
//
// Determinism is preserved for every worker count because scheduling
// freedom never reorders what a stage computes: jobs enter a segment's
// queue in microbatch order (segment 0 from the in-order dispatch,
// segment g+1 from segment g's in-order drain), the claiming worker runs
// the runnable ones in queue order, each through the segment's stages in
// chain order, and the active flag forbids two workers inside one
// segment — so every stage accumulates its backward slots serially in
// microbatch order exactly as in the serial Reference engine, and commits
// each minibatch between its last backward slot of that minibatch and its
// first of the next. Each slot call installs the weights it reads
// (engine.Host), so the Table 1 delays stay per stage whatever the cut;
// and microbatch losses are summed in microbatch order. Training curves
// are therefore bit-identical to Reference for every W ∈ {1..P} — pinned
// by the equivalence tests at the repository root.
//
// The queues and workers belong to one Stream call: it builds them, and
// joins the workers before it returns (the calling goroutine is worker 0).
// The Engine itself holds only W, so one value serves any number of
// trainers and replicas at once.
package concurrent

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pipemare/internal/engine"
	"pipemare/internal/trace"
)

// segmentsPerWorker sets the segment count S = min(P, segmentsPerWorker·W).
// Fewer, longer segments cross fewer queues; more, shorter ones leave
// stealing more room to balance. On the benchmark's resmlp-fine workload
// (P = 107, W = 2, a 2-CPU box, streams that do not drain between
// minibatches; 6 s timed passes over alternating seeds, 14 runs each at
// 1 and 2 segments per worker, 10 at 4, 4 at 8) samples/s had medians of
// about 81–84k at 1 and 2, 74–77k at 4 and 70k at 8; 2 won 8 of 10
// seed-paired runs against 4. 2 is the larger of the two best values, and it leaves every
// pipeline with P ≤ 2·W — the benchmark's P = 4 transformers at W = 2 —
// on one stage per segment.
const segmentsPerWorker = 2

type jobKind int

const (
	jobFwd    jobKind = iota // climb: run the segment's forward slots
	jobRecomp                // climb: run the segment's recompute slots
	jobBwd                   // descend: run the segment's backward slots
	jobStep                  // a clipping commit's steps under the folded scale
)

type job struct {
	kind  jobKind
	s     int     // global microbatch counter
	mb    int     // minibatch index within the stream
	need  int     // commits of the segment the job waits for (engine.Commit's rule)
	scale float64 // jobStep: the clip factor
}

// segmentQueue is one segment's run queue. active marks the segment as
// claimed by a worker: between the claim and the release only that worker
// pops jobs, so the segment's slots execute serially no matter which
// workers touch the segment over time.
type segmentQueue struct {
	mu     sync.Mutex
	jobs   []job
	active bool

	// committed counts the stream's minibatches the segment has committed.
	// Only the claiming worker reads or writes it.
	committed int
}

// Engine is the work-stealing segment-scheduler engine (engine.Engine).
type Engine struct {
	workers int // requested W; 0 = GOMAXPROCS
}

// New returns a work-stealing segment-scheduler engine of W = workers
// scheduler workers draining the segment queues; 0 or less means
// min(P, GOMAXPROCS). Any W produces bit-identical curves; W only changes
// how many segments make progress simultaneously (and how finely the
// stages are cut), so more workers than stages is clamped to P.
func New(workers int) *Engine { return &Engine{workers: max(workers, 0)} }

// Name identifies the engine.
func (e *Engine) Name() string { return "concurrent" }

// workersFor returns the W a p-stage Stream starts: New's workers, or
// GOMAXPROCS, clamped to p.
func (e *Engine) workersFor(p int) int {
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, p)
}

// run is one Stream's scheduler: the segment queues its nw workers drain
// over host h.
type run struct {
	h      engine.Host
	cut    engine.CommitPlan // segment g is the stage range cut.Shard(g)
	queues []segmentQueue    // one per segment

	// The stream: its minibatches, N, the first microbatch's counter, and
	// its commit jobs (nil: the caller commits).
	ctx     context.Context
	mbs     [][][]int
	n       int
	base    int
	rec     bool
	c       engine.Commit
	commits *engine.Commits
	losses  []float64 // per microbatch of the stream, written by its crest

	// Dispatch: dmu orders BeginMicro and segment 0's enqueue in
	// microbatch order. The worker that ends a chain opens the next.
	dmu        sync.Mutex
	dispatched int
	ctxErr     error // the cancellation that stopped dispatch

	// abortAt is the first minibatch whose jobs skip their slots and
	// commits: the first bad loss's, or the cancel's cut. bad records that
	// a bad loss set it.
	abortAt atomic.Int64
	bad     atomic.Bool

	prepared atomic.Int32 // segments that prepared the minibatch a clipping commit folds

	// live counts the chains in flight and the commit jobs not yet run;
	// the stream is over when it falls to zero, which closes done.
	live atomic.Int64
	done chan struct{}

	// ready offers claimed segments to the workers, buffered to S: a
	// segment is offered once per claim, so a send never blocks.
	ready chan int

	// tracks[w] is worker w's trace track (nil when tracing is off — every
	// emission no-ops). Exactly one goroutine (worker w) writes it, so
	// appends need no locking, and the recorder never influences
	// scheduling — curves are bit-identical with tracing on or off.
	tracks []*trace.Track
}

// newRun cuts h's P stages into S = min(P, 2·nw) segments and builds their
// queues for nw workers.
func newRun(h engine.Host, nw int) *run {
	p := h.Stages()
	segs := min(p, segmentsPerWorker*nw)
	r := &run{h: h, cut: engine.NewCommitPlan(p, segs), queues: make([]segmentQueue, segs),
		done: make(chan struct{}), ready: make(chan int, segs), tracks: make([]*trace.Track, nw)}
	for i := range r.tracks {
		r.tracks[i] = engine.WorkerTrack(h, i)
	}
	r.abortAt.Store(math.MaxInt64)
	return r
}

// Stream runs the stream's chains with up to min(P, N) of them in flight
// on workers of its own — the calling goroutine and W−1 more — joins
// them, and restores every stage.
func (e *Engine) Stream(ctx context.Context, h engine.Host, mbs [][][]int, c engine.Commit) ([]float64, error) {
	p := h.Stages()
	nw := e.workersFor(p)
	r := newRun(h, nw)
	r.ctx, r.mbs, r.c = ctx, mbs, c
	r.commits = engine.NewCommits(c, p)
	r.base, r.rec = h.MicroBase(), h.Recompute()
	total := 0
	if len(mbs) > 0 {
		r.n = len(mbs[0])
		total = len(mbs) * r.n
	}
	r.losses = make([]float64, total)
	for g := range r.queues {
		// A queue holds at most one job per chain in flight and one
		// clipping step, so it never grows mid-stream.
		r.queues[g].jobs = make([]job, 0, min(p, r.n)+1)
	}
	for range min(p, r.n) {
		r.dispatch()
	}
	if r.live.Load() > 0 {
		var wg sync.WaitGroup
		wg.Add(nw - 1)
		for w := 1; w < nw; w++ {
			go func() {
				defer wg.Done()
				r.work(w)
			}()
		}
		r.work(0)
		wg.Wait()
	}
	// Every worker has exited — each slot and commit job happens-before
	// its worker's exit — so the stages are restored right here.
	for i := 0; i < p; i++ {
		h.Restore(i)
	}
	return r.result()
}

// result returns the mean loss of every minibatch the stream completed,
// summed in microbatch order, and why it stopped short, if it did.
func (r *run) result() ([]float64, error) {
	done := int(min(r.abortAt.Load(), int64(len(r.mbs))))
	out := make([]float64, done)
	for j := range out {
		sum := 0.0
		for _, l := range r.losses[j*r.n : (j+1)*r.n] {
			sum += l
		}
		out[j] = sum / float64(r.n)
	}
	switch {
	case r.bad.Load():
		return out, engine.ErrDiverged
	case r.ctxErr != nil:
		return out, r.ctxErr
	}
	return out, nil
}

// dispatch opens the stream's next chain and queues its forward climb at
// segment 0, unless the stream is spent, stopped, or cancelled — a
// cancellation cuts the stream at the minibatch of the chain it would
// have opened.
func (r *run) dispatch() {
	r.dmu.Lock()
	defer r.dmu.Unlock()
	if r.dispatched == len(r.losses) {
		return
	}
	mb := r.dispatched / r.n
	if int64(mb) >= r.abortAt.Load() {
		return
	}
	if err := r.ctx.Err(); err != nil {
		r.ctxErr = err
		r.abort(mb)
		return
	}
	s := r.base + r.dispatched
	r.h.BeginMicro(s, r.mbs[mb][r.dispatched%r.n])
	r.dispatched++
	r.live.Add(1)
	r.enqueue(0, job{kind: jobFwd, s: s, mb: mb, need: r.fwdNeed(0, s, mb)})
}

// abort stops every job of minibatch mb and later: they skip their slots
// and commits, and a queue holding one is handed to a worker, since a job
// its wait rule held back may now run.
func (r *run) abort(mb int) {
	for {
		cur := r.abortAt.Load()
		if int64(mb) >= cur {
			return
		}
		if r.abortAt.CompareAndSwap(cur, int64(mb)) {
			break
		}
	}
	for g := range r.queues {
		r.enqueue(g)
	}
}

// aborted reports whether minibatch mb's jobs skip their work.
func (r *run) aborted(mb int) bool { return int64(mb) >= r.abortAt.Load() }

// fwdNeed is the commits segment g must have made before microbatch s of
// minibatch mb climbs it: those that produced the versions its stages'
// forward slots read.
func (r *run) fwdNeed(g, s, mb int) int {
	if r.c == nil {
		return 0
	}
	lo, hi := r.cut.Shard(g)
	lag := 0
	for i := lo; i < hi; i++ {
		if l := r.c.Lag(s, i); i == lo || l < lag {
			lag = l
		}
	}
	return mb - lag
}

// runnable reports whether the segment's wait rule lets jb run now.
func (r *run) runnable(q *segmentQueue, jb *job) bool {
	return jb.need <= q.committed || r.aborted(jb.mb)
}

// enqueue appends jobs to a segment's queue and, when the queue holds a
// job and no worker currently claims the segment, claims it and offers it
// on ready. Append order is microbatch order for every producer (the
// dispatch and upstream segment drains are both in order), which is what
// makes any worker interleaving deterministic.
func (r *run) enqueue(g int, jbs ...job) {
	q := &r.queues[g]
	q.mu.Lock()
	q.jobs = append(q.jobs, jbs...)
	wake := !q.active && len(q.jobs) > 0
	if wake {
		q.active = true
	}
	q.mu.Unlock()
	if wake {
		r.ready <- g
	}
}

// work is worker w's loop: take an offered segment, drain it, repeat until
// the stream is over. Before it waits, it readies its track's next trace
// block, so recording inside a claim does not allocate it.
func (r *run) work(w int) {
	for {
		r.tracks[w].Reserve()
		select {
		case g := <-r.ready:
			r.drain(w, g)
		case <-r.done:
			return
		}
	}
}

// drain runs the claimed segment's runnable jobs in queue order until none
// is left, then releases the claim — under the queue's lock, so a job an
// abort made runnable is either seen here or handed on by abort. While
// the claim is held this goroutine is the only one touching the segment's
// stages — their installed weight pointers, T2 accumulators, version
// rings and parameter gradients.
func (r *run) drain(w, g int) {
	q := &r.queues[g]
	for {
		q.mu.Lock()
		i := 0
		for i < len(q.jobs) && !r.runnable(q, &q.jobs[i]) {
			i++
		}
		if i == len(q.jobs) {
			q.active = false
			q.mu.Unlock()
			return
		}
		jb := q.jobs[i]
		q.jobs = slices.Delete(q.jobs, i, i+1)
		q.mu.Unlock()
		r.process(w, g, jb)
	}
}

// process executes one job of segment g on worker w and hands the chain on:
// to the next segment's queue, or, at the last segment, to the crest or the
// descent. A job of an aborted minibatch ends its chain instead.
func (r *run) process(w, g int, jb job) {
	if jb.kind == jobStep {
		lo, hi := r.cut.Shard(g)
		r.commits.Step(r.tracks[w], lo, hi, jb.scale)
		r.queues[g].committed++
		r.release()
		return
	}
	if r.aborted(jb.mb) {
		r.finish(jb)
		return
	}
	switch jb.kind {
	case jobFwd, jobRecomp:
		r.climb(w, g, jb)
		switch {
		case g < len(r.queues)-1:
			if jb.kind == jobFwd {
				jb.need = r.fwdNeed(g+1, jb.s, jb.mb)
			}
			r.enqueue(g+1, jb)
		case jb.kind == jobFwd:
			r.crest(w, g, jb)
		default:
			r.descend(w, g, jb)
		}
	case jobBwd:
		r.bwd(w, g, jb)
	}
}

// climb runs the chain's forward (or recompute) slots for segment g's
// stages in ascending order, emitting one trace span per slot; the last
// stage's forward records the microbatch's loss.
func (r *run) climb(w, g int, jb job) {
	lo, hi := r.cut.Shard(g)
	tk := r.tracks[w]
	for i := lo; i < hi; i++ {
		t0 := tk.Now()
		if jb.kind == jobFwd {
			r.losses[jb.s-r.base] = r.h.StageForward(jb.s, i)
			tk.Span(trace.NameFwd, t0, i, jb.s, 0)
		} else {
			r.h.StageRecompute(jb.s, i)
			tk.Span(trace.NameRecompute, t0, i, jb.s, 0)
		}
	}
}

// crest handles the top of a forward climb at the last segment g: the loss
// check, then either the divergence abort, the recompute climb, or the
// start of the backward descent.
func (r *run) crest(w, g int, jb job) {
	if r.h.BadLoss(r.losses[jb.s-r.base]) {
		// This minibatch diverged: it and every later one stop, and the
		// chain ends without a backward pass.
		r.bad.Store(true)
		r.abort(jb.mb)
		r.finish(jb)
		return
	}
	if r.rec {
		// With one segment this is the queue being drained; the drain
		// picks it up.
		jb.kind, jb.need = jobRecomp, r.slotNeed(jb.mb)
		r.enqueue(0, jb)
		return
	}
	r.descend(w, g, jb)
}

// slotNeed is the commits a backward or recompute job of minibatch mb
// waits for: every earlier minibatch's.
func (r *run) slotNeed(mb int) int {
	if r.c == nil {
		return 0
	}
	return mb
}

// descend starts the chain's backward descent at the last segment g: at
// once when the segment has committed every earlier minibatch and holds
// no earlier descent, from its queue otherwise, which keeps the segment's
// backward slots in microbatch order. The segment is claimed, so queueing
// wakes no one.
func (r *run) descend(w, g int, jb job) {
	jb.kind, jb.need = jobBwd, r.slotNeed(jb.mb)
	q := &r.queues[g]
	q.mu.Lock()
	queue := !r.runnable(q, &jb) || slices.ContainsFunc(q.jobs, func(o job) bool { return o.kind == jobBwd })
	if queue {
		q.jobs = append(q.jobs, jb)
	}
	q.mu.Unlock()
	if !queue {
		r.bwd(w, g, jb)
	}
}

// bwd runs the chain's backward slots for segment g's stages in descending
// order and passes it down; at segment 0 the chain completes. Behind the
// last microbatch of a minibatch the segment then commits it.
func (r *run) bwd(w, g int, jb job) {
	lo, hi := r.cut.Shard(g)
	tk := r.tracks[w]
	for i := hi - 1; i >= lo; i-- {
		t0 := tk.Now()
		r.h.StageBackward(jb.s, i)
		tk.Span(trace.NameBwd, t0, i, jb.s, 0)
	}
	last := r.commits != nil && (jb.s-r.base)%r.n == r.n-1 && !r.aborted(jb.mb)
	if last {
		r.live.Add(1)
	}
	if g > 0 {
		r.enqueue(g-1, jb)
	} else {
		r.finish(jb)
	}
	if last {
		r.commit(w, g, jb.mb)
	}
}

// commit runs segment g's commit job of minibatch mb. Without the clip
// fold it steps the stages too. With it, the last segment to prepare
// folds the partials and queues the steps on every segment.
func (r *run) commit(w, g, mb int) {
	lo, hi := r.cut.Shard(g)
	r.commits.Job(r.tracks[w], lo, hi, r.n)
	if !r.commits.Clips() {
		r.queues[g].committed++
	} else if segs := int32(len(r.queues)); r.prepared.Add(1) == segs {
		r.prepared.Store(0)
		scale := r.commits.Scale()
		r.live.Add(int64(segs))
		for g := range r.queues {
			r.enqueue(g, job{kind: jobStep, mb: mb, scale: scale})
		}
	}
	r.release()
}

// finish ends a chain: it closes the microbatch, opens the stream's next
// chain, and releases the chain's hold on the stream.
func (r *run) finish(jb job) {
	r.h.EndMicro(jb.s)
	r.dispatch()
	r.release()
}

// release drops one chain's or commit job's hold on the stream; the last
// ends it.
func (r *run) release() {
	if r.live.Add(-1) == 0 {
		close(r.done)
	}
}
