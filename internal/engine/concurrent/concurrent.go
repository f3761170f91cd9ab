// Package concurrent implements the work-stealing segment-scheduler
// engine: W workers (WithWorkers, default min(P, GOMAXPROCS)) drain
// per-segment run queues of microbatch jobs on the §2 slot schedule — a
// forward token climbs stage 1→P running each stage's forward slot, an
// optional recompute token climbs again (Appendix D), and a backward token
// descends P→1 running each stage's backward slot.
//
// A segment — a run of consecutive stages, never a pinned goroutine — is
// the serialization domain. The P stages are cut into S = min(P, 4·W)
// contiguous segments of near-equal size (engine.CommitPlan's split); each
// segment owns a FIFO job queue, and an idle worker claims an entire
// segment (the queue's active flag guarantees at most one worker drains a
// segment at a time), runs each queued job through the segment's stages by
// direct slot calls — ascending for a climb, descending for the descent —
// and releases it. A chain therefore crosses a queue only at segment
// edges: 2(S−1) times per microbatch instead of 2(P−1), which is what
// makes the fine-grained regime (one stage per weight group, P ≫ W) cheap
// to schedule. With P ≤ 4·W every segment is one stage. Workers
// load-balance across segments automatically, and up to P microbatch
// chains are in flight at once — a real fill/drain pipeline.
//
// Determinism is preserved for every worker count because scheduling
// freedom never reorders a serialization domain: jobs enter a segment's
// queue in microbatch order (segment 0 from the in-order dispatcher,
// segment g+1 from segment g's in-order drain), the claiming worker runs
// them in FIFO order and each job through the segment's stages in chain
// order, and the active flag forbids two workers inside one segment — so
// every stage sees its slots serially in microbatch order, and
// per-parameter gradient accumulation is serial in s exactly as in the
// serial Reference engine. Each slot call installs the weights it reads
// (engine.Host), so the Table 1 delays stay per stage whatever the cut;
// and microbatch losses are summed in microbatch order from the result
// collector. Training curves are therefore bit-identical to Reference for
// every W ∈ {1..P} — pinned by the equivalence tests at the repository
// root.
//
// The queues, channels and workers belong to one Minibatch call: it builds
// them, and joins the workers before it returns. The Engine itself holds
// only W, so one value serves any number of trainers and replicas at once.
package concurrent

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"pipemare/internal/engine"
	"pipemare/internal/trace"
)

// segmentsPerWorker sets the segment count S = min(P, segmentsPerWorker·W).
// Fewer, longer segments cross fewer queues; more, shorter ones leave
// stealing more room to balance. On the benchmark's resmlp-fine workload
// (P = 107, W = 2, a 2-CPU box) samples/s was flat from 1 to 4 segments
// per worker and fell back toward the one-segment-per-stage rate at 8. 4
// is the largest value that keeps the gain, and it leaves every pipeline
// with P ≤ 4·W on one stage per segment.
const segmentsPerWorker = 4

type jobKind int

const (
	jobFwd    jobKind = iota // climb: run the segment's forward slots
	jobRecomp                // climb: run the segment's recompute slots
	jobBwd                   // descend: run the segment's backward slots
)

type job struct {
	kind jobKind
	s    int  // global microbatch counter
	k    int  // index within the minibatch (loss ordering)
	rec  bool // the chain makes the recompute climb
	loss float64
	bad  bool
}

// segmentQueue is one segment's FIFO run queue. active marks the segment
// as claimed by a worker: between the claim and the release only that
// worker pops jobs, so the segment's slots execute serially in arrival
// order no matter which workers touch the segment over time.
type segmentQueue struct {
	mu     sync.Mutex
	jobs   []job
	head   int
	active bool
}

// Engine is the work-stealing segment-scheduler engine (engine.Engine).
type Engine struct {
	workers int // requested W; 0 = GOMAXPROCS
}

// Option configures the engine.
type Option func(*Engine)

// WithWorkers sets W, the number of scheduler workers draining the segment
// queues (default: min(P, GOMAXPROCS)). Any W produces bit-identical
// curves; W only changes how many segments make progress simultaneously
// (and how finely the stages are cut), so more workers than stages is
// clamped to P.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.workers = n
	}
}

// New returns a work-stealing segment-scheduler engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name identifies the engine.
func (e *Engine) Name() string { return "concurrent" }

// Workers returns the W a p-stage Minibatch starts: WithWorkers, or
// GOMAXPROCS, clamped to p.
func (e *Engine) Workers(p int) int {
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, p)
}

// run is one Minibatch's scheduler: the segment queues its nw workers
// drain over host h.
type run struct {
	h       engine.Host
	cut     engine.CommitPlan // segment g is the stage range cut.Shard(g)
	queues  []segmentQueue    // one per segment
	ready   chan int          // segments with queued work and no claiming worker
	results chan job
	aborted atomic.Bool // set on the first bad loss: later chains skip compute

	// tracks[w] is worker w's trace track (nil when tracing is off — every
	// emission no-ops). Exactly one goroutine (worker w) writes it, so
	// appends need no locking, and the recorder never influences
	// scheduling — curves are bit-identical with tracing on or off.
	tracks []*trace.Track
}

// newRun cuts h's P stages into S = min(P, 4·nw) segments and builds their
// queues for nw workers.
func newRun(h engine.Host, nw int) *run {
	p := h.Stages()
	segs := min(p, segmentsPerWorker*nw)
	r := &run{h: h, cut: engine.NewCommitPlan(p, segs), queues: make([]segmentQueue, segs),
		// Each segment is "ready" at most once (the active flag), and at
		// most P chains are in flight, so capacities S and P make every
		// send non-blocking.
		ready: make(chan int, segs), results: make(chan job, p), tracks: make([]*trace.Track, nw)}
	for i := range r.tracks {
		r.tracks[i] = engine.WorkerTrack(h, i)
	}
	return r
}

// enqueue appends a job to a segment's queue and, when no worker
// currently claims the segment, marks it ready. FIFO append order is
// microbatch order for every producer (the dispatcher and upstream segment
// drains are both in-order), which is what makes any worker interleaving
// deterministic.
func (r *run) enqueue(g int, jb job) {
	q := &r.queues[g]
	q.mu.Lock()
	q.jobs = append(q.jobs, jb)
	wake := !q.active
	if wake {
		q.active = true
	}
	q.mu.Unlock()
	if wake {
		r.ready <- g
	}
}

// drain runs the claimed segment's queued jobs in FIFO order until the
// queue is empty, then releases the claim. While the claim is held this
// goroutine is the only one touching the segment's stages — their
// installed weight pointers, T2 accumulators, version rings and parameter
// gradients — the same ownership the goroutine-per-stage design provided,
// held per burst instead of per run.
func (r *run) drain(w, g int) {
	q := &r.queues[g]
	for {
		q.mu.Lock()
		if q.head == len(q.jobs) {
			q.jobs = q.jobs[:0]
			q.head = 0
			q.active = false
			q.mu.Unlock()
			return
		}
		jb := q.jobs[q.head]
		q.head++
		q.mu.Unlock()
		r.process(w, g, jb)
	}
}

// process executes one job of segment g on worker w and hands the chain on:
// to the next segment's queue, or, at the last segment, to the crest or the
// descent.
func (r *run) process(w, g int, jb job) {
	switch jb.kind {
	case jobFwd, jobRecomp:
		r.climb(w, g, &jb)
		switch {
		case g < len(r.queues)-1:
			r.enqueue(g+1, jb)
		case jb.kind == jobFwd:
			r.crest(w, g, jb)
		default:
			r.bwd(w, g, jb)
		}
	case jobBwd:
		r.bwd(w, g, jb)
	}
}

// climb runs the chain's forward (or recompute) slots for segment g's
// stages in ascending order, emitting one trace span per slot.
func (r *run) climb(w, g int, jb *job) {
	lo, hi := r.cut.Shard(g)
	tk := r.tracks[w]
	for i := lo; i < hi && !r.aborted.Load(); i++ {
		t0 := tk.Now()
		if jb.kind == jobFwd {
			jb.loss = r.h.StageForward(jb.s, i)
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
	if !r.aborted.Load() && r.h.BadLoss(jb.loss) {
		jb.bad = true
		r.aborted.Store(true)
	}
	if r.aborted.Load() {
		// This microbatch diverged, or an earlier one did: the chain ends
		// without a backward pass; the collector ignores its loss.
		r.h.EndMicro(jb.s)
		r.results <- jb
		return
	}
	if jb.rec {
		// With one segment this is the queue being drained; the drain
		// picks it up.
		jb.kind = jobRecomp
		r.enqueue(0, jb)
		return
	}
	r.bwd(w, g, jb)
}

// bwd runs the chain's backward slots for segment g's stages in descending
// order and passes it down; at segment 0 the chain completes.
func (r *run) bwd(w, g int, jb job) {
	lo, hi := r.cut.Shard(g)
	tk := r.tracks[w]
	for i := hi - 1; i >= lo && !r.aborted.Load(); i-- {
		t0 := tk.Now()
		r.h.StageBackward(jb.s, i)
		tk.Span(trace.NameBwd, t0, i, jb.s, 0)
	}
	if g > 0 {
		jb.kind = jobBwd
		r.enqueue(g-1, jb)
		return
	}
	r.h.EndMicro(jb.s)
	r.results <- jb
}

// Minibatch executes the N microbatch chains with up to P of them
// overlapping across the segment queues of a run of its own, restores every
// stage once they have drained, and joins the run's workers before it
// returns.
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	p := h.Stages()
	nw := e.Workers(p)
	r := newRun(h, nw)
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for g := range r.ready {
				r.drain(w, g)
			}
		}()
	}
	// The chains drain before Minibatch returns, so every queue is empty
	// and no job is left to enqueue: closing the ready channel releases
	// every worker.
	defer func() {
		close(r.ready)
		wg.Wait()
	}()
	rec := h.Recompute()
	base := h.MicroBase()
	n := len(micros)
	losses := make([]float64, n)
	dispatched, completed := 0, 0
	badK := -1
	var ctxErr error
	for {
		for dispatched < n && dispatched-completed < p && badK < 0 && ctxErr == nil {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
			h.BeginMicro(base+dispatched, micros[dispatched])
			r.enqueue(0, job{kind: jobFwd, s: base + dispatched, k: dispatched, rec: rec})
			dispatched++
		}
		if completed == dispatched {
			if dispatched == n || badK >= 0 || ctxErr != nil {
				break
			}
		}
		res := <-r.results
		completed++
		losses[res.k] = res.loss
		if res.bad && badK < 0 {
			badK = res.k
		}
	}

	// Every chain has drained — each slot happens-before its chain's
	// result — so the stages are restored right here, whether the
	// minibatch goes on to its commit or back to the trainer as a
	// divergence or cancellation.
	for i := 0; i < p; i++ {
		h.Restore(i)
	}
	if ctxErr != nil {
		return 0, ctxErr
	}
	if badK >= 0 {
		return 0, engine.ErrDiverged
	}
	lossSum := 0.0
	for _, l := range losses {
		lossSum += l
	}
	return lossSum / float64(n), nil
}
