package pipemare

import (
	"context"
	"fmt"
	"time"

	"pipemare/internal/core"
	"pipemare/internal/engine"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// OptimizerFactory builds an optimizer over a task's parameters in
// partition (forward) order. Factories — rather than built optimizers —
// let New guarantee the optimizer covers exactly the trainer's parameters.
type OptimizerFactory func(ps []*nn.Param) Optimizer

// Observer receives the run curve after each completed epoch (1-based
// cumulative count), for streaming metrics while Run executes.
type Observer = core.Observer

// settings collects everything the options configure before New
// assembles the trainer.
type settings struct {
	cfg          core.Config
	microbatches int // N; resolved against BatchSize at build time
	optFactory   OptimizerFactory
	sched        Schedule
	observer     Observer
	dialers      []transport.Dialer
	dialTimeout  time.Duration
	joinAt       int          // earliest leader step to join at (JoinFollower)
	dtype        tensor.DType // element type model state trains in
}

// Option configures New. Most options only set a value: core.New checks
// every run value once, a leader's and its followers' alike, and refuses
// the first out of range by name. An option still refuses what core cannot
// tell from its default — a nil, a zero it does not read as the default —
// and the first failing option aborts New with its error.
type Option func(*settings) error

// WithMethod selects GPipe, PipeDream or PipeMare execution
// (default GPipe).
func WithMethod(m Method) Option {
	return func(s *settings) error {
		s.cfg.Method = m
		return nil
	}
}

// WithStages sets the pipeline stage count P; 0 (the default) means one
// stage per weight group, the paper's fine-grained maximum.
func WithStages(p int) Option {
	return func(s *settings) error {
		s.cfg.Stages = p
		return nil
	}
}

// WithBatchSize sets the minibatch size (default 32).
func WithBatchSize(b int) Option {
	return func(s *settings) error {
		s.cfg.BatchSize = b
		return nil
	}
}

// WithMicrobatches sets N, the number of microbatches per minibatch
// (default 4). The batch size must be divisible by N; the Table 1 delays
// scale as 1/N.
func WithMicrobatches(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("pipemare: microbatches must be positive, got %d", n)
		}
		if s.cfg.MicrobatchSize != 0 {
			return fmt.Errorf("pipemare: WithMicrobatches conflicts with WithMicrobatchSize")
		}
		s.microbatches = n
		return nil
	}
}

// WithMicrobatchSize sets the number of samples per microbatch directly,
// as an alternative to WithMicrobatches.
func WithMicrobatchSize(sz int) Option {
	return func(s *settings) error {
		if sz == 0 { // New reads 0 as "derive it from N"; a negative size is core's to refuse
			return fmt.Errorf("pipemare: microbatch size must be positive, got %d", sz)
		}
		if s.microbatches != 0 {
			return fmt.Errorf("pipemare: WithMicrobatchSize conflicts with WithMicrobatches")
		}
		s.cfg.MicrobatchSize = sz
		return nil
	}
}

// WithPartition selects how weight groups are split into the P stages:
// PartitionEven (the default — by group count, the paper's rule),
// PartitionCost (bottleneck-minimizing over the analytic per-group
// FLOP/byte cost model), or PartitionProfile (bottleneck-minimizing over
// measured per-group wall time from a one-microbatch profiling pass at
// build time). The partition determines each parameter's stage and
// therefore its delay τ_fwd; curves are deterministic per mode. Only a
// leader partitions: a follower takes the leader's stage map.
func WithPartition(m PartitionMode) Option {
	return func(s *settings) error {
		s.cfg.Partition = m
		return nil
	}
}

// WithT1 enables Technique 1 (learning-rate rescheduling) with the given
// annealing length in optimizer steps; 0 disables it.
func WithT1(k int) Option {
	return func(s *settings) error {
		s.cfg.T1K = k
		return nil
	}
}

// WithT2 enables Technique 2 (discrepancy correction) with decay
// hyperparameter D in (0, 1); 0 disables it.
func WithT2(d float64) Option {
	return func(s *settings) error {
		s.cfg.T2D = d
		return nil
	}
}

// WithT3 enables Technique 3 with the given number of initial synchronous
// (GPipe-style) warmup epochs; 0 disables it.
func WithT3(warmupEpochs int) Option {
	return func(s *settings) error {
		s.cfg.WarmupEpochs = warmupEpochs
		return nil
	}
}

// WithRecompute enables the Appendix D recompute delay path with the given
// number of gradient-checkpoint segments; 0 disables it.
func WithRecompute(segments int) Option {
	return func(s *settings) error {
		s.cfg.RecomputeSegments = segments
		return nil
	}
}

// DTypeSettable is a Task that can cast its model state to a different
// element type (WithDType; a follower's task, to its leader's). The model
// tasks in internal/model implement it; a float32 model's parameters are
// the rounded image of the same float64 initialization, so every replica
// lands on bit-identical float32 state.
type DTypeSettable = core.DTypeSettable

// WithDType selects the element type the model trains in: Float64 (the
// default) or Float32. Float32 halves memory traffic through the
// cache-blocked kernels — roughly 2× single-core throughput on
// matmul-bound models — and keeps the same determinism contract per
// dtype: every engine, worker count and replica count reproduces the
// float32 Reference curve bit-for-bit. The task must implement
// DTypeSettable; the cast happens before the optimizer factory runs, so
// optimizer moments are allocated in the same dtype. Checkpoints and the
// wire protocol tag every tensor with its dtype; a follower trains the
// leader's dtype (its task must be DTypeSettable when the two differ), and
// the state handoff that admits every follower refuses a tensor of
// another dtype by stage and index.
func WithDType(dt DType) Option {
	return func(s *settings) error {
		switch dt {
		case Float64, Float32:
			s.dtype = dt
			return nil
		}
		return fmt.Errorf("pipemare: unknown dtype %d", int(dt))
	}
}

// WithOptimizer sets the optimizer factory (default: SGD with momentum
// 0.9 and no weight decay).
func WithOptimizer(f OptimizerFactory) Option {
	return func(s *settings) error {
		if f == nil {
			return fmt.Errorf("pipemare: optimizer factory must not be nil")
		}
		s.optFactory = f
		return nil
	}
}

// WithSchedule sets the base learning-rate schedule (default
// Constant(0.01)).
func WithSchedule(sched Schedule) Option {
	return func(s *settings) error {
		if sched == nil {
			return fmt.Errorf("pipemare: schedule must not be nil")
		}
		s.sched = sched
		return nil
	}
}

// WithEngine selects the execution engine (default: the single-goroutine
// Reference engine; NewConcurrentEngine is the work-stealing
// segment-scheduler engine). It means the same at every replica count:
// the pipeline engine each replica runs. With WithReplicas(R > 1) every
// in-process replica runs e itself — an engine holds no run resources, so
// one value also serves any number of trainers at once — and a remote
// follower runs the engine of its own ServeFollower options.
func WithEngine(e Engine) Option {
	return func(s *settings) error {
		if e == nil {
			return fmt.Errorf("pipemare: engine must not be nil")
		}
		s.cfg.Engine = e
		return nil
	}
}

// WithReplicas sets the data-parallel replica count R (default 1). With
// R > 1 the task must implement Replicable (CloneTask): the trainer owns
// R−1 follower replicas, splits each minibatch's microbatches across
// them, and after a deterministic gradient all-reduce commits one shared
// optimizer step sharded ZeRO-style across them — each replica steps a
// contiguous shard of the stages against its own optimizer state, and the
// stepped weights all-gather back — so training curves are bit-identical
// to a single-replica run of the same global batch. R must not exceed the
// microbatch count N. Every in-process replica runs the WithEngine
// engine over its share of the microbatches, so pipeline overlap composes
// with replication.
func WithReplicas(r int) Option {
	return func(s *settings) error {
		if r == 0 { // core reads 0 as 1; a negative R is core's to refuse
			return fmt.Errorf("pipemare: replicas must be >= 1, got %d", r)
		}
		s.cfg.Replicas = r
		return nil
	}
}

// WithTransport makes the trainer's follower replicas remote: instead of
// building R−1 in-process follower trainers, New dials one worker per
// follower (in replica order — dialer r−1 hosts replica r) and drives it
// over the wire transport (internal/transport). Each worker must be
// running ServeFollower with the leader's model architecture and data.
// New admits every worker exactly as it admits an in-process follower or
// a mid-run joiner: a hello announcing the follower's position and the
// run's resolved recipe, which the worker builds its follower from, then
// the state handoff, which replaces every tensor and clock the worker
// trains from and refuses one of another architecture by name — so a
// mismatch fails New instead of silently diverging the curves, and the
// worker's own initial weights and recipe options do not matter. Exactly
// R−1 dialers are required; with no WithReplicas option, R =
// len(dialers)+1 is implied. Training curves stay bit-identical to
// in-process replicas and to a single-replica run (float64 bits cross the
// wire verbatim). Close the trainer (Trainer.Close) to release the worker
// connections.
func WithTransport(dialers ...Dialer) Option {
	return func(s *settings) error {
		if len(dialers) == 0 {
			return fmt.Errorf("pipemare: WithTransport needs at least one dialer")
		}
		for i, d := range dialers {
			if d == nil {
				return fmt.Errorf("pipemare: WithTransport dialer %d is nil", i)
			}
		}
		s.dialers = append([]transport.Dialer(nil), dialers...)
		return nil
	}
}

// WithDialTimeout bounds each WithTransport dial + hello (default
// 30s). Dialers retry with backoff inside this budget, so a leader
// started before its workers converges.
func WithDialTimeout(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("pipemare: dial timeout must be positive, got %v", d)
		}
		s.dialTimeout = d
		return nil
	}
}

// WithFaultTolerance makes follower failures survivable: each replica
// mirrors the full optimizer moment state (stage state carries the
// moments through every gather and handoff), so when a follower dies
// mid-run the leader evicts it and rebuilds the chunk split and commit
// plan over the survivors. A death before the commit's prepare phase
// replays the interrupted minibatch; a later one — mid-step, or while
// the gather reads or writes its state — has the leader re-step the dead
// member's shard itself, bitwise as the owner did, and the minibatch
// stands. Either way the post-eviction curve is bit-identical to a fresh
// run over the surviving replica count from the same state. Without it a
// follower holds only its own shard's moments, so a dead follower ends
// the run with an error naming it. The optimizer must hold the moment
// state of every parameter (SGD and AdamW from their ordinary
// constructors do). With R > 1, implied by WithCheckpoint, WithElastic
// and WithStragglerDemotion.
func WithFaultTolerance() Option {
	return func(s *settings) error {
		s.cfg.FaultTolerant = true
		return nil
	}
}

// WithElastic enables mid-run scale-up on a leader: call
// Trainer.AcceptJoins with a listener and fresh workers can dial in
// while training runs (JoinFollower, or pipemare-worker -join). Each
// joiner is parked until the next minibatch boundary, admitted with a
// live state handoff — masters, T2 state, optimizer moments and the
// weight-version rings, the same push a checkpoint restore uses — and
// the chunk split and commit plan grow to R+1.
// Because the handed-off member is indistinguishable from one that
// trained from the start, the post-join curve is bit-identical to a
// fresh (R+1)-replica run from the handoff state. Requires
// WithReplicas/WithTransport >= 2 (a running group to grow) and implies
// WithFaultTolerance: admission reshuffles stage ownership.
func WithElastic() Option {
	return func(s *settings) error {
		s.cfg.Elastic = true
		return nil
	}
}

// WithStragglerDemotion bounds how long the leader waits on a remote
// follower's chunk reply, counted in heartbeat windows (WithHeartbeat): a
// follower whose reply misses `misses` consecutive windows is demoted to
// standby — kept alive and connected but excluded from the chunk split
// and commit plan, its microbatches redistributed over the survivors —
// and readmitted through the state handoff a mid-run joiner receives
// once its late reply drains. A transient slowdown then costs bounded
// wall time instead of stalling every minibatch, while curves stay
// bit-identical to a run over the momentarily-smaller membership. Without
// it (or with zero) the leader waits indefinitely, bar the heartbeat's
// hang rule. With R > 1, demotion implies WithFaultTolerance:
// readmission reshuffles stage ownership.
func WithStragglerDemotion(misses int) Option {
	return func(s *settings) error {
		s.cfg.StragglerMisses = misses
		return nil
	}
}

// WithJoinAt asks the leader to park this joiner until the run has committed
// step optimizer steps (JoinFollower only; 0, the default, admits at
// the next minibatch boundary). A leader option list ignores it.
func WithJoinAt(step int) Option {
	return func(s *settings) error {
		if step < 0 {
			return fmt.Errorf("pipemare: join step must be >= 0, got %d", step)
		}
		s.joinAt = step
		return nil
	}
}

// WithCheckpoint makes the leader serialize its complete training state
// — master weights, optimizer moments, T2 accumulators and the per-stage
// weight-version rings, whose newest version is the step count — to a
// CRC'd frame file under dir every `every` optimizer steps (0 or 1
// means every step). Restore with pipemare.Restore, which resumes the
// run exactly where the newest valid checkpoint left it: the data order
// is a pure function of (seed, epoch), so the resumed curve is
// bit-identical to the uninterrupted run's from that step on. Followers
// never checkpoint. With R > 1 it implies WithFaultTolerance: a restore
// redistributes the leader's full state, moments included.
func WithCheckpoint(dir string, every int) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("pipemare: checkpoint directory must not be empty")
		}
		s.cfg.CheckpointDir = dir
		s.cfg.CheckpointEvery = every
		return nil
	}
}

// WithHeartbeat sets the liveness cadence for remote followers
// (WithTransport): a worker pings its leader at this interval while
// computing a chunk, and the interval is the one window of the leader's
// wait on a follower's reply. A peer silent — no reply, no ping — for ten
// windows is treated as dead, surfacing a hang as a failure the
// fault-tolerance layer can evict instead of blocking until the context
// ends; a chunk reply that misses WithStragglerDemotion's budget of
// windows demotes its follower. 0, the default, follows fault tolerance
// — explicit or implied: 1s when it is on, off otherwise — a run that
// cannot evict a dead peer gains nothing from declaring one, and a
// heavily oversubscribed host (many in-process workers per core) can
// starve the ping goroutine past any fixed window. Fault-tolerant runs on
// such hosts should widen the cadence explicitly.
func WithHeartbeat(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return fmt.Errorf("pipemare: heartbeat must be >= 0, got %v", d)
		}
		s.cfg.Heartbeat = d
		return nil
	}
}

// WithTrace attaches a trace recorder to the trainer: every slot
// execution, commit phase, replica collective, wire round-trip and
// fault event of the run is recorded as a timestamped span or instant
// (package internal/trace). Export the recording with WriteChromeTrace
// (Chrome/Perfetto trace-event JSON) or summarize it with
// BuildTraceReport. Tracing only reads the clock and appends into
// buffers owned by the emitting goroutine, so the training curve is
// bit-identical with tracing on or off.
func WithTrace(rec *TraceRecorder) Option {
	return func(s *settings) error {
		if rec == nil {
			return fmt.Errorf("pipemare: trace recorder must not be nil")
		}
		s.cfg.Trace = rec
		return nil
	}
}

// WithSeed sets the data-order RNG seed.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithClipNorm sets the global gradient-norm clip; 0 (default) disables
// clipping.
func WithClipNorm(c float64) Option {
	return func(s *settings) error {
		s.cfg.ClipNorm = c
		return nil
	}
}

// WithLossCap sets the divergence threshold (default 1e6).
func WithLossCap(c float64) Option {
	return func(s *settings) error {
		if c == 0 { // core reads 0 as the default; a negative cap is core's to refuse
			return fmt.Errorf("pipemare: loss cap must be positive, got %g", c)
		}
		s.cfg.LossCap = c
		return nil
	}
}

// WithObserver registers a per-epoch observer invoked with the cumulative
// epoch count and the curve recorded so far.
func WithObserver(fn Observer) Option {
	return func(s *settings) error {
		if fn == nil {
			return fmt.Errorf("pipemare: observer must not be nil")
		}
		s.observer = fn
		return nil
	}
}

// New builds a pipeline-parallel trainer for task from functional options.
// Zero options gives synchronous GPipe training of a fine-grained
// partition with momentum SGD at a constant rate — every knob (method,
// stage count, microbatching, the three PipeMare techniques, recompute,
// optimizer, schedule, engine, seed) is an Option. Train with
// Trainer.Run(ctx, epochs).
func New(task Task, opts ...Option) (*Trainer, error) {
	s, opt, err := resolveSettings(task, opts)
	if err != nil {
		return nil, err
	}
	if len(s.dialers) > 0 {
		if s.cfg.Replicas == 0 {
			s.cfg.Replicas = len(s.dialers) + 1
		} else if s.cfg.Replicas != len(s.dialers)+1 {
			return nil, fmt.Errorf("pipemare: %d transport dialers for %d replicas; WithTransport needs exactly R-1", len(s.dialers), s.cfg.Replicas)
		}
		s.cfg.Followers = remoteFollowers(s.dialers, s.dialTimeout)
	}
	tr, err := core.New(task, opt, s.sched, s.cfg)
	if err != nil {
		return nil, err
	}
	if s.observer != nil {
		tr.Observe(s.observer)
	}
	return tr, nil
}

// resolveSettings applies the options and fills every default, returning
// the resolved settings and the built optimizer — the shared front half
// of New, ServeFollower and JoinFollower (a follower then takes only its
// optimizer, schedule, engine and dial settings from them).
func resolveSettings(task Task, opts []Option) (*settings, Optimizer, error) {
	s := &settings{}
	s.cfg.BatchSize = 32
	for _, o := range opts {
		if o == nil {
			return nil, nil, fmt.Errorf("pipemare: nil Option")
		}
		if err := o(s); err != nil {
			return nil, nil, err
		}
	}
	if s.dialTimeout == 0 {
		s.dialTimeout = 30 * time.Second
	}
	if s.cfg.MicrobatchSize == 0 {
		n := s.microbatches
		if n == 0 {
			n = 4
		}
		if s.cfg.BatchSize%n != 0 {
			return nil, nil, fmt.Errorf("pipemare: batch size %d not divisible into %d microbatches", s.cfg.BatchSize, n)
		}
		s.cfg.MicrobatchSize = s.cfg.BatchSize / n
	}
	if s.dtype != tensor.Float64 {
		ds, ok := task.(DTypeSettable)
		if !ok {
			return nil, nil, fmt.Errorf("pipemare: task %T does not implement DTypeSettable (WithDType)", task)
		}
		// Cast before the optimizer factory runs so moment buffers are
		// allocated in the model dtype (optimizers size off Param.Data).
		ds.SetDType(s.dtype)
	}
	if s.optFactory == nil {
		s.optFactory = func(ps []*nn.Param) Optimizer { return optim.NewSGD(ps, 0.9, 0) }
	}
	if s.sched == nil {
		s.sched = optim.Constant(0.01)
	}
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := s.optFactory(ps)
	if opt == nil {
		return nil, nil, fmt.Errorf("pipemare: optimizer factory returned nil")
	}
	return s, opt, nil
}

// remoteFollowers returns the core follower factory for WithTransport:
// dial worker r's endpoint (with the backoff the dialer implements), send
// the hello with the spec the trainer resolved for it, and wrap the
// connection as the leader-side member proxy the handoff then admits.
func remoteFollowers(dialers []transport.Dialer, timeout time.Duration) func(transport.Spec) (replica.Member, error) {
	return func(spec transport.Spec) (replica.Member, error) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		conn, err := dialers[spec.Replica-1].Dial(ctx)
		if err != nil {
			return nil, err
		}
		m, err := transport.NewRemoteMember(ctx, conn, spec)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return m, nil
	}
}

// ensure the engine package's types satisfy the facade aliases.
var _ Engine = engine.Reference{}
