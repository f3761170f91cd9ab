// Package concurrent implements the work-stealing stage-scheduler engine:
// W workers (WithWorkers, default min(P, GOMAXPROCS)) drain per-stage run
// queues of microbatch slot jobs on the §2 slot schedule — a forward token
// climbs stage 1→P running each stage's forward slot, an optional
// recompute token climbs again (Appendix D), and a backward token descends
// P→1 running each stage's backward slot.
//
// A stage is a serialization domain, never a pinned goroutine: each stage
// owns a FIFO job queue, and an idle worker claims an entire *stage* (the
// queue's active flag guarantees at most one worker drains a stage at a
// time), runs its queued slots in order, and releases it. Workers
// therefore load-balance across stages automatically — with P ≫ cores the
// engine no longer pays for P mostly-idle goroutines, and a cost-balanced
// partition (pipeline.PartitionGroupsByCost) keeps the per-stage queues
// comparably heavy. Up to P microbatch chains are in flight at once — a
// real fill/drain pipeline.
//
// Determinism is preserved for every worker count because scheduling
// freedom never reorders a serialization domain: jobs enter a stage's
// queue in microbatch order (stage 0 from the in-order dispatcher, stage
// i+1 from stage i's in-order drain), the claiming worker runs them in
// FIFO order, and the active flag forbids two workers inside one stage —
// so per-stage per-parameter gradient accumulation is serial in s exactly
// as in the serial Reference engine. Each slot call installs the weights
// it reads (engine.Host); the workers also serve as the engine.Pool the
// trainer's commit shards across, with the stage-partial norms reduced in
// stage order; and microbatch losses are summed in microbatch order from
// the result collector. Training curves are therefore bit-identical to Reference for
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

type jobKind int

const (
	jobFwd    jobKind = iota // climb: run the stage's forward slot
	jobRecomp                // climb: run the stage's recompute slot
	jobBwd                   // descend: run the stage's backward slot
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

// stageQueue is one stage's FIFO run queue. active marks the stage as
// claimed by a worker: between the claim and the release only that worker
// pops jobs, so the stage's slots execute serially in arrival order no
// matter which workers touch the stage over time.
type stageQueue struct {
	mu     sync.Mutex
	jobs   []job
	head   int
	active bool
}

// Engine is the work-stealing stage-scheduler engine. It implements
// engine.Engine and engine.Lifecycle; a Trainer starts the workers at the
// beginning of a run and stops them when the run returns. An Engine
// instance must not be shared by concurrently running trainers.
type Engine struct {
	workers int // requested W; 0 = min(P, GOMAXPROCS)

	h       engine.Host
	p       int // stages, and the number of microbatch chains allowed in flight
	nw      int // workers actually started
	queues  []stageQueue
	ready   chan int // stages with queued work and no claiming worker
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

// WithWorkers sets W, the number of scheduler workers draining the stage
// queues (default: min(P, GOMAXPROCS)). Any W produces bit-identical
// curves; W only changes how many stages make progress simultaneously, so
// more workers than stages is clamped to P.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 0 {
			n = 0
		}
		e.workers = n
	}
}

// New returns a work-stealing stage-scheduler engine.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Name identifies the engine.
func (e *Engine) Name() string { return "concurrent" }

// Start spawns the scheduler workers.
func (e *Engine) Start(h engine.Host) {
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
	e.queues = make([]stageQueue, e.p)
	// Each stage is "ready" at most once (the active flag), so capacity P
	// makes every send non-blocking.
	e.ready = make(chan int, e.p)
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

// enqueue appends a job to a stage's queue and, when no worker currently
// claims the stage, marks it ready. FIFO append order is microbatch order
// for every producer (the dispatcher and upstream stage drains are both
// in-order), which is what makes any worker interleaving deterministic.
func (e *Engine) enqueue(stage int, jb job) {
	q := &e.queues[stage]
	q.mu.Lock()
	q.jobs = append(q.jobs, jb)
	wake := !q.active
	if wake {
		q.active = true
	}
	q.mu.Unlock()
	if wake {
		e.ready <- stage
	}
}

// worker claims ready stages and drains them until the engine stops. w
// is the worker's index: its trace track needs it explicitly (goroutines
// have no usable id).
func (e *Engine) worker(w int) {
	defer e.wg.Done()
	for i := range e.ready {
		e.drain(w, i)
	}
}

// drain runs the claimed stage's queued jobs in FIFO order until the
// queue is empty, then releases the claim. While the claim is held this
// goroutine is the only one touching the stage's installed weight
// pointers, T2 accumulators, version ring and parameter gradients — the
// same ownership the goroutine-per-stage design provided, held per burst
// instead of per run.
func (e *Engine) drain(w, i int) {
	q := &e.queues[i]
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
		e.process(w, i, jb)
	}
}

// process executes one job of stage i on worker w, emitting one trace span
// per executed compute slot.
func (e *Engine) process(w, i int, jb job) {
	last := e.p - 1
	tk := e.tracks[w]
	switch jb.kind {
	case jobFwd:
		if !e.aborted.Load() {
			t0 := e.rec.Now()
			jb.loss = e.h.StageForward(jb.s, i)
			tk.Span(trace.NameFwd, t0, i, jb.s, 0)
		}
		if i < last {
			e.enqueue(i+1, jb)
			return
		}
		e.crest(w, jb)
	case jobRecomp:
		if !e.aborted.Load() {
			t0 := e.rec.Now()
			e.h.StageRecompute(jb.s, i)
			tk.Span(trace.NameRecompute, t0, i, jb.s, 0)
		}
		if i < last {
			e.enqueue(i+1, jb)
			return
		}
		e.bwd(w, i, jb)
	case jobBwd:
		e.bwd(w, i, jb)
	case jobCall:
		jb.fn(jb.k, tk)
		e.acks <- struct{}{}
	}
}

// crest handles the top of a forward climb at the last stage: the loss
// check, then either the divergence abort, the recompute climb, or the
// start of the backward descent.
func (e *Engine) crest(w int, jb job) {
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
		// With P = 1 this is the queue being drained; the drain picks it up.
		jb.kind = jobRecomp
		e.enqueue(0, jb)
		return
	}
	e.bwd(w, e.p-1, jb)
}

// bwd runs stage i's backward slot for the chain and passes it down; at
// stage 0 the chain completes.
func (e *Engine) bwd(w, i int, jb job) {
	if !e.aborted.Load() {
		t0 := e.rec.Now()
		e.h.StageBackward(jb.s, i)
		e.tracks[w].Span(trace.NameBwd, t0, i, jb.s, 0)
	}
	if i > 0 {
		jb.kind = jobBwd
		e.enqueue(i-1, jb)
		return
	}
	e.h.EndMicro(jb.s)
	e.results <- jb
}

// Minibatch executes the N microbatch chains with up to P of them
// overlapping across the stage queues, and restores every stage once they
// have drained.
func (e *Engine) Minibatch(ctx context.Context, h engine.Host, micros [][]int) (float64, error) {
	e.Start(h) // a no-op when already running over h
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
// them (engine.Pool). Valid once the engine has started.
func (e *Engine) Shards() int { return e.nw }

// ParallelFor runs fn(i, tk) for every shard i as one job on stage queue
// i — any idle worker claims it, passing its own track — and waits for all
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
