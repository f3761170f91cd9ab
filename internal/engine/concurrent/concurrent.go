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
// the workers also serve as the engine.Pool the commit shards its stages
// across, with the stage-partial norms reduced in stage order; and
// microbatch losses are summed in microbatch order from the result
// collector. Training curves are therefore bit-identical to Reference for
// every W ∈ {1..P} — pinned by the equivalence tests at the repository
// root.
package concurrent

import (
	"context"
	"runtime"
	"strconv"
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
	jobCall                  // run fn(k) on the claiming worker and ack (a commit shard)
)

type job struct {
	kind jobKind
	s    int  // global microbatch counter
	k    int  // index within the minibatch (loss ordering); jobCall: fn's argument
	rec  bool // the chain makes the recompute climb
	loss float64
	bad  bool
	fn   func(i int, tk *trace.Track)
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

// Engine is the work-stealing segment-scheduler engine. It implements
// engine.Engine and engine.Lifecycle: its first Minibatch starts the
// workers, and a Trainer stops them when the run returns. An Engine
// instance must not be shared by concurrently running trainers.
type Engine struct {
	workers int // requested W; 0 = min(P, GOMAXPROCS)

	h       engine.Host
	p       int               // stages, and the number of microbatch chains allowed in flight
	nw      int               // workers actually started
	cut     engine.CommitPlan // segment g is the stage range cut.Shard(g)
	queues  []segmentQueue    // one per segment
	ready   chan int          // segments with queued work and no claiming worker
	results chan job
	acks    chan struct{}
	aborted atomic.Bool // set on the first bad loss: later chains skip compute
	wg      sync.WaitGroup
	running bool

	losses []float64 // per-minibatch scratch, reused across calls

	// rec and tracks carry the run's trace recorder (nil when tracing is
	// off — every emission no-ops). tracks[w] is worker w's span buffer:
	// exactly one goroutine (worker w) writes it, so appends need no
	// locking, and the recorder never influences scheduling — curves are
	// bit-identical with tracing on or off.
	rec    *trace.Recorder
	tracks []*trace.Track
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

// Clone returns a fresh, unstarted engine with the same WithWorkers.
func (e *Engine) Clone() engine.Engine { return New(WithWorkers(e.workers)) }

// start spawns the scheduler workers over h, first stopping those of
// another host.
func (e *Engine) start(h engine.Host) {
	if e.running {
		if e.h == h {
			return
		}
		e.Stop()
	}
	e.h = h
	e.p = h.Stages()
	e.nw = e.workers
	if e.nw == 0 {
		e.nw = runtime.GOMAXPROCS(0)
	}
	e.nw = min(e.nw, e.p)
	// S ≥ W, so ParallelFor's W calls each have a queue of their own.
	segs := min(e.p, segmentsPerWorker*e.nw)
	e.cut = engine.NewCommitPlan(e.p, segs)
	e.queues = make([]segmentQueue, segs)
	// Each segment is "ready" at most once (the active flag), so capacity
	// S makes every send non-blocking.
	e.ready = make(chan int, segs)
	e.results = make(chan job, e.p)
	e.acks = make(chan struct{}, e.nw)
	e.losses = make([]float64, 0, e.p)
	rec, rep := trace.FromCarrier(h)
	e.rec = rec
	e.tracks = make([]*trace.Track, e.nw)
	for i := range e.tracks {
		e.tracks[i] = rec.Track(rep, trace.TidWorkerBase+i, "worker "+strconv.Itoa(i))
	}
	e.wg.Add(e.nw)
	for i := 0; i < e.nw; i++ {
		go e.worker(i)
	}
	e.running = true
}

// Stop joins the workers. All queues are empty between minibatches
// (Minibatch drains every chain, ParallelFor every call, before
// returning), so closing the ready channel releases every worker.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	close(e.ready)
	e.wg.Wait()
	e.queues, e.ready, e.results, e.acks = nil, nil, nil, nil
	e.losses = nil
	e.rec, e.tracks = nil, nil
	e.h = nil
	e.running = false
}

// enqueue appends a job to a segment's queue and, when no worker
// currently claims the segment, marks it ready. FIFO append order is
// microbatch order for every producer (the dispatcher and upstream segment
// drains are both in-order), which is what makes any worker interleaving
// deterministic.
func (e *Engine) enqueue(g int, jb job) {
	q := &e.queues[g]
	q.mu.Lock()
	q.jobs = append(q.jobs, jb)
	wake := !q.active
	if wake {
		q.active = true
	}
	q.mu.Unlock()
	if wake {
		e.ready <- g
	}
}

// worker claims ready segments and drains them until the engine stops. w
// is the worker's index: its trace track needs it explicitly (goroutines
// have no usable id).
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	for g := range e.ready {
		e.drain(w, g)
	}
}

// drain runs the claimed segment's queued jobs in FIFO order until the
// queue is empty, then releases the claim. While the claim is held this
// goroutine is the only one touching the segment's stages — their
// installed weight pointers, T2 accumulators, version rings and parameter
// gradients — the same ownership the goroutine-per-stage design provided,
// held per burst instead of per run.
func (e *Engine) drain(w, g int) {
	q := &e.queues[g]
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
		e.process(w, g, jb)
	}
}

// process executes one job of segment g on worker w and hands the chain on:
// to the next segment's queue, or, at the last segment, to the crest or the
// descent.
func (e *Engine) process(w, g int, jb job) {
	switch jb.kind {
	case jobFwd, jobRecomp:
		e.climb(w, g, &jb)
		switch {
		case g < len(e.queues)-1:
			e.enqueue(g+1, jb)
		case jb.kind == jobFwd:
			e.crest(w, g, jb)
		default:
			e.bwd(w, g, jb)
		}
	case jobBwd:
		e.bwd(w, g, jb)
	case jobCall:
		jb.fn(jb.k, e.tracks[w])
		e.acks <- struct{}{}
	}
}

// climb runs the chain's forward (or recompute) slots for segment g's
// stages in ascending order, emitting one trace span per slot.
func (e *Engine) climb(w, g int, jb *job) {
	lo, hi := e.cut.Shard(g)
	tk := e.tracks[w]
	for i := lo; i < hi && !e.aborted.Load(); i++ {
		t0 := e.rec.Now()
		if jb.kind == jobFwd {
			jb.loss = e.h.StageForward(jb.s, i)
			tk.Span(trace.NameFwd, t0, i, jb.s, 0)
		} else {
			e.h.StageRecompute(jb.s, i)
			tk.Span(trace.NameRecompute, t0, i, jb.s, 0)
		}
	}
}

// crest handles the top of a forward climb at the last segment g: the loss
// check, then either the divergence abort, the recompute climb, or the
// start of the backward descent.
func (e *Engine) crest(w, g int, jb job) {
	if !e.aborted.Load() && e.h.BadLoss(jb.loss) {
		jb.bad = true
		e.aborted.Store(true)
	}
	if e.aborted.Load() {
		// This microbatch diverged, or an earlier one did: the chain ends
		// without a backward pass; the collector ignores its loss.
		e.h.EndMicro(jb.s)
		e.results <- jb
		return
	}
	if jb.rec {
		// With one segment this is the queue being drained; the drain
		// picks it up.
		jb.kind = jobRecomp
		e.enqueue(0, jb)
		return
	}
	e.bwd(w, g, jb)
}

// bwd runs the chain's backward slots for segment g's stages in descending
// order and passes it down; at segment 0 the chain completes.
func (e *Engine) bwd(w, g int, jb job) {
	lo, hi := e.cut.Shard(g)
	tk := e.tracks[w]
	for i := hi - 1; i >= lo && !e.aborted.Load(); i-- {
		t0 := e.rec.Now()
		e.h.StageBackward(jb.s, i)
		tk.Span(trace.NameBwd, t0, i, jb.s, 0)
	}
	if g > 0 {
		jb.kind = jobBwd
		e.enqueue(g-1, jb)
		return
	}
	e.h.EndMicro(jb.s)
	e.results <- jb
}

// Minibatch executes the N microbatch chains with up to P of them
// overlapping across the segment queues, and restores every stage once they
// have drained.
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	e.start(h) // a no-op when already running over h
	e.aborted.Store(false)
	rec := h.Recompute()
	base := h.MicroBase()
	n := len(micros)
	losses := e.losses[:0]
	for len(losses) < n {
		losses = append(losses, 0)
	}
	e.losses = losses
	dispatched, completed := 0, 0
	badK := -1
	var ctxErr error
	for {
		for dispatched < n && dispatched-completed < e.p && badK < 0 && ctxErr == nil {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
			h.BeginMicro(base+dispatched, micros[dispatched])
			e.enqueue(0, job{kind: jobFwd, s: base + dispatched, k: dispatched, rec: rec})
			dispatched++
		}
		if completed == dispatched {
			if dispatched == n || badK >= 0 || ctxErr != nil {
				break
			}
		}
		res := <-e.results
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
	for i := 0; i < e.p; i++ {
		h.Restore(i)
	}
	if ctxErr != nil {
		return 0, ctxErr
	}
	if badK >= 0 {
		return 0, engine.ErrDiverged
	}
	lossSum := 0.0
	for _, l := range losses[:n] {
		lossSum += l
	}
	return lossSum / float64(n), nil
}

// Shards returns the number of workers: the shard count of a commit run on
// them (engine.Pool). Valid once a Minibatch has started the engine.
func (e *Engine) Shards() int { return e.nw }

// ParallelFor runs fn(i, tk) for every shard i as one job on segment
// queue i — any idle worker claims it, passing its own track — and waits for all
// acks (engine.Pool). It must only be called with every chain drained,
// between minibatches.
func (e *Engine) ParallelFor(fn func(i int, tk *trace.Track)) {
	for i := 0; i < e.nw; i++ {
		e.enqueue(i, job{kind: jobCall, k: i, fn: fn})
	}
	for i := 0; i < e.nw; i++ {
		<-e.acks
	}
}
