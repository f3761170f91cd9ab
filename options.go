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

// settings collects everything the options configure before New validates
// and assembles the trainer.
type settings struct {
	cfg          core.Config
	microbatches int // N; resolved against BatchSize at build time
	optFactory   OptimizerFactory
	sched        Schedule
	observer     Observer
	dialers      []transport.Dialer
	dialTimeout  time.Duration
	heartbeat    time.Duration // remote-follower liveness cadence
	heartbeatSet bool
	joinAt       int          // earliest leader step to join at (JoinFollower)
	dtype        tensor.DType // element type model state trains in
}

// Option configures New. Options validate eagerly: the first failing
// option aborts New with its error.
type Option func(*settings) error

// WithMethod selects GPipe, PipeDream or PipeMare execution
// (default GPipe).
func WithMethod(m Method) Option {
	return func(s *settings) error {
		switch m {
		case GPipe, PipeDream, PipeMare:
			s.cfg.Method = m
			return nil
		}
		return fmt.Errorf("pipemare: unknown method %d", int(m))
	}
}

// WithStages sets the pipeline stage count P; 0 (the default) means one
// stage per weight group, the paper's fine-grained maximum.
func WithStages(p int) Option {
	return func(s *settings) error {
		if p < 0 {
			return fmt.Errorf("pipemare: stages must be >= 0, got %d", p)
		}
		s.cfg.Stages = p
		return nil
	}
}

// WithBatchSize sets the minibatch size (default 32).
func WithBatchSize(b int) Option {
	return func(s *settings) error {
		if b <= 0 {
			return fmt.Errorf("pipemare: batch size must be positive, got %d", b)
		}
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
		if sz <= 0 {
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
// therefore its delay τ_fwd; curves are deterministic per mode (profile
// mode is deterministic given a cost vector — see WithGroupCosts).
func WithPartition(m PartitionMode) Option {
	return func(s *settings) error {
		switch m {
		case PartitionEven, PartitionCost, PartitionProfile:
			s.cfg.Partition = m
			return nil
		}
		return fmt.Errorf("pipemare: unknown partition mode %d", int(m))
	}
}

// WithGroupCosts supplies explicit per-group costs for the cost/profile
// partition modes, overriding the built-in estimators — e.g. a cost
// vector captured from a previous trainer's GroupCosts(), which pins a
// measured (profile) partition exactly across trainers and processes.
// The slice length must match the task's weight-group count; it requires
// WithPartition(PartitionCost) or WithPartition(PartitionProfile).
func WithGroupCosts(costs []float64) Option {
	return func(s *settings) error {
		if len(costs) == 0 {
			return fmt.Errorf("pipemare: group costs must not be empty")
		}
		s.cfg.GroupCosts = append([]float64(nil), costs...)
		return nil
	}
}

// WithT1 enables Technique 1 (learning-rate rescheduling) with the given
// annealing length in optimizer steps; 0 disables it.
func WithT1(k int) Option {
	return func(s *settings) error {
		if k < 0 {
			return fmt.Errorf("pipemare: T1 annealing steps must be >= 0, got %d", k)
		}
		s.cfg.T1K = k
		return nil
	}
}

// WithT2 enables Technique 2 (discrepancy correction) with decay
// hyperparameter D in (0, 1); 0 disables it.
func WithT2(d float64) Option {
	return func(s *settings) error {
		if d < 0 || d >= 1 {
			return fmt.Errorf("pipemare: T2 decay D must be in [0, 1), got %g", d)
		}
		s.cfg.T2D = d
		return nil
	}
}

// WithT3 enables Technique 3 with the given number of initial synchronous
// (GPipe-style) warmup epochs; 0 disables it.
func WithT3(warmupEpochs int) Option {
	return func(s *settings) error {
		if warmupEpochs < 0 {
			return fmt.Errorf("pipemare: warmup epochs must be >= 0, got %d", warmupEpochs)
		}
		s.cfg.WarmupEpochs = warmupEpochs
		return nil
	}
}

// WithRecompute enables the Appendix D recompute delay path with the given
// number of gradient-checkpoint segments; 0 disables it.
func WithRecompute(segments int) Option {
	return func(s *settings) error {
		if segments < 0 {
			return fmt.Errorf("pipemare: recompute segments must be >= 0, got %d", segments)
		}
		s.cfg.RecomputeSegments = segments
		return nil
	}
}

// DTypeSettable is a Task that can cast its model state to a different
// element type (WithDType). The model tasks in internal/model implement
// it; a float32 model's parameters are the rounded image of the same
// float64 initialization, so every replica (local or remote) lands on
// bit-identical float32 state.
type DTypeSettable interface {
	SetDType(dt DType)
}

// WithDType selects the element type the model trains in: Float64 (the
// default) or Float32. Float32 halves memory traffic through the
// cache-blocked kernels — roughly 2× single-core throughput on
// matmul-bound models — and keeps the same determinism contract per
// dtype: every engine, worker count and replica count reproduces the
// float32 Reference curve bit-for-bit. The task must implement
// DTypeSettable; the cast happens before the optimizer factory runs, so
// optimizer moments are allocated in the same dtype. Checkpoints and the
// wire protocol tag every tensor with its dtype, and the transport
// handshake checksum covers it, so a leader/worker dtype mismatch fails
// the handshake instead of diverging.
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
// Reference engine; see internal/engine/concurrent for the stage-worker
// engine).
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
// them, and commits one shared optimizer step after a deterministic
// gradient all-reduce, so training curves are bit-identical to a
// single-replica run of the same global batch. R must not exceed the
// microbatch count N. The engine must be replica-aware; the default
// engine for R > 1 is the replicated engine over Reference inners (see
// NewReplicatedEngine to choose the inner engine).
func WithReplicas(r int) Option {
	return func(s *settings) error {
		if r < 1 {
			return fmt.Errorf("pipemare: replicas must be >= 1, got %d", r)
		}
		s.cfg.Replicas = r
		return nil
	}
}

// WithShardedStep enables (true) or disables (false) the ZeRO-style
// replica-sharded optimizer commit. When sharded, each replica owns a
// contiguous shard of the pipeline stages, holds optimizer moment state
// only for that shard (followers allocate nothing else), and steps it
// locally after the gradient all-reduce; the stepped weights, T2 state
// and version pushes all-gather back — so the commit tail no longer runs
// serially on the leader, while curves stay bit-identical to the
// leader-serial commit and to single-replica runs. Without this option
// the commit is sharded automatically whenever WithReplicas(R > 1) is set
// and the optimizer supports sharding (optim.ShardCloner — SGD and AdamW
// do). WithShardedStep(true) makes that a requirement: building the
// trainer fails when replicas < 2 or the optimizer cannot shard.
func WithShardedStep(on bool) Option {
	return func(s *settings) error {
		if on {
			s.cfg.ShardedStep = core.ShardedStepOn
		} else {
			s.cfg.ShardedStep = core.ShardedStepOff
		}
		return nil
	}
}

// WithTransport makes the trainer's follower replicas remote: instead of
// building R−1 in-process follower trainers, New dials one worker per
// follower (in replica order — dialer r−1 hosts replica r) and drives it
// over the wire transport (internal/transport). Each worker must be
// running ServeFollower with the same task construction and options as
// the leader; the handshake verifies topology, method, technique flags,
// commit mode and a checksum over the initial weights, so a mismatch
// fails New instead of silently diverging the curves. Exactly R−1
// dialers are required; with no WithReplicas option, R = len(dialers)+1
// is implied. Training curves stay bit-identical to in-process replicas
// and to a single-replica run (float64 bits cross the wire verbatim).
// Close the trainer (Trainer.Close) to release the worker connections.
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

// WithDialTimeout bounds each WithTransport dial + handshake (default
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

// WithFaultTolerance makes follower failures survivable in every commit
// mode: each replica mirrors the full optimizer moment state (stage
// state carries the moments through every gather and broadcast), so
// when a follower dies mid-run the leader evicts it, rebuilds the
// reduce tree and commit plan over the survivors, and replays the
// interrupted minibatch — with a post-eviction curve bit-identical to a
// fresh run over the surviving replica count from the same state.
// Serial-commit (WithShardedStep(false)) groups evict without this
// option; the sharded commit requires it, because without mirrored
// moments a dead owner's optimizer shard is simply gone. Requires an
// optimizer exposing its moment state (optim.Stateful — SGD and AdamW
// do). Implied by WithCheckpoint under the sharded commit.
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
// live state handoff — masters, T2 state, optimizer moments, the
// weight-version rings, and the clocks, the same push a checkpoint
// restore uses — and the reduce tree and commit plan grow to R+1.
// Because the handed-off member is indistinguishable from one that
// trained from the start, the post-join curve is bit-identical to a
// fresh (R+1)-replica run from the handoff state. Requires
// WithReplicas/WithTransport >= 2 (a running group to grow); under the
// sharded commit it implies WithFaultTolerance, exactly as eviction
// does.
func WithElastic() Option {
	return func(s *settings) error {
		s.cfg.Elastic = true
		return nil
	}
}

// StragglerPolicy selects how the leader treats a remote follower that
// repeatedly misses its per-collective deadline (WithStragglerPolicy).
type StragglerPolicy int

const (
	// StragglerWait waits indefinitely (bar heartbeat liveness) — the
	// default: a slow follower stalls the minibatch but stays a member.
	StragglerWait StragglerPolicy = iota
	// StragglerDemote demotes a follower that misses the deadline K
	// consecutive times to standby: it stays alive and connected but is
	// excluded from the reduce tree and commit plan (its microbatches
	// redistribute over the survivors), and it automatically rejoins
	// through the live-handoff path once its late reply drains.
	StragglerDemote
)

// WithStragglerPolicy bounds how long the leader waits on a remote
// follower's collective reply: under StragglerDemote, a follower that
// misses `deadline` for `misses` consecutive deadline windows is
// demoted to standby and later readmitted via the same state handoff a
// mid-run joiner receives — so a transient slowdown costs bounded wall
// time instead of stalling every minibatch, while curves stay
// bit-identical to a run over the momentarily-smaller membership.
// StragglerWait (the default) ignores deadline and misses and disables
// demotion. Under the sharded commit, demotion implies
// WithFaultTolerance, exactly as eviction does.
func WithStragglerPolicy(p StragglerPolicy, deadline time.Duration, misses int) Option {
	return func(s *settings) error {
		switch p {
		case StragglerWait:
			s.cfg.StragglerDeadline = 0
			s.cfg.StragglerMisses = 0
			return nil
		case StragglerDemote:
			if deadline <= 0 {
				return fmt.Errorf("pipemare: straggler deadline must be positive, got %v", deadline)
			}
			if misses < 1 {
				return fmt.Errorf("pipemare: straggler miss count must be >= 1, got %d", misses)
			}
			s.cfg.StragglerDeadline = deadline
			s.cfg.StragglerMisses = misses
			return nil
		}
		return fmt.Errorf("pipemare: unknown straggler policy %d", int(p))
	}
}

// WithJoinAt asks the leader to park this joiner until its optimizer
// step clock reaches step (JoinFollower only; 0, the default, admits at
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
// — master weights, optimizer moments, T2 accumulators, the per-stage
// weight-version rings, and the step/epoch/microbatch clocks — to a
// CRC'd frame file under dir every `every` optimizer steps (every <= 1
// means every step). Restore with pipemare.Restore, which resumes the
// run exactly where the newest valid checkpoint left it: the data order
// is a pure function of (seed, epoch), so the resumed curve is
// bit-identical to the uninterrupted run's from that step on. Followers
// never checkpoint.
func WithCheckpoint(dir string, every int) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("pipemare: checkpoint directory must not be empty")
		}
		if every < 0 {
			return fmt.Errorf("pipemare: checkpoint cadence must be >= 0, got %d", every)
		}
		s.cfg.CheckpointDir = dir
		s.cfg.CheckpointEvery = every
		return nil
	}
}

// WithHeartbeat sets the liveness cadence for remote followers
// (WithTransport): a worker pings its leader at this interval while
// computing a chunk, and the leader treats a peer silent for ten
// missed heartbeats as dead — surfacing a hang as a failure the
// fault-tolerance layer can evict instead of blocking until the context
// ends. 0 disables liveness detection. Without this option, liveness
// detection follows WithFaultTolerance: 1s when fault tolerance is on,
// off otherwise — a run that cannot evict a dead peer gains nothing
// from declaring one, and a heavily oversubscribed host (many
// in-process workers per core) can starve the ping goroutine past any
// fixed window. Fault-tolerant runs on such hosts should widen the
// cadence explicitly.
func WithHeartbeat(d time.Duration) Option {
	return func(s *settings) error {
		if d < 0 {
			return fmt.Errorf("pipemare: heartbeat must be >= 0, got %v", d)
		}
		s.heartbeat = d
		s.heartbeatSet = true
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
		if c < 0 {
			return fmt.Errorf("pipemare: clip norm must be >= 0, got %g", c)
		}
		s.cfg.ClipNorm = c
		return nil
	}
}

// WithLossCap sets the divergence threshold (default 1e6).
func WithLossCap(c float64) Option {
	return func(s *settings) error {
		if c <= 0 {
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
		hb := s.heartbeat
		if !s.heartbeatSet && s.cfg.FaultTolerant {
			hb = transport.DefaultHeartbeat
		}
		// The trainer announces the resolved cadence in every spec it
		// builds: to the followers dialed here and to mid-run joiners.
		s.cfg.Heartbeat = hb
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
// of New and ServeFollower, so a worker process resolving the same
// option list lands on the same configuration as its leader.
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
// dial worker r's endpoint (with the backoff the dialer implements),
// announce the spec the trainer resolved for it, and wrap the connection
// as the leader-side member proxy.
func remoteFollowers(dialers []transport.Dialer, timeout time.Duration) func(int, core.ReplicaEnv) (replica.Member, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return func(r int, env core.ReplicaEnv) (replica.Member, error) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		conn, err := dialers[r-1].Dial(ctx)
		if err != nil {
			return nil, err
		}
		m, err := transport.NewRemoteMember(ctx, conn, env.Spec)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return m, nil
	}
}

// ensure the engine package's types satisfy the facade aliases.
var _ Engine = engine.Reference{}
