// Package pipemare is a from-scratch Go reproduction of
// "PipeMare: Asynchronous Pipeline Parallel DNN Training"
// (Yang, Zhang, Li, Ré, Aberger, De Sa — MLSYS 2021, arXiv:1910.05124).
//
// It provides, stdlib-only:
//
//   - an asynchronous pipeline-parallel training system with
//     microbatch-exact Table 1 delays (internal/pipeline, internal/core),
//     including the GPipe and PipeDream baselines, behind pluggable
//     execution engines (internal/engine): a single-goroutine Reference
//     simulator and a work-stealing segment-scheduler engine
//     (internal/engine/concurrent, NewConcurrentEngine) with bit-identical
//     training curves, over even, cost-balanced or profiled stage
//     partitions (WithPartition);
//   - PipeDream-style data parallelism over R pipeline replicas
//     (WithReplicas), in process or behind a wire transport
//     (WithTransport), each replica running the engine WithEngine
//     names, with curves bit-identical to one replica;
//   - the three PipeMare techniques — T1 learning-rate rescheduling,
//     T2 discrepancy correction, T3 synchronous warmup — plus the
//     Appendix D recompute delay path and the Appendix E Hogwild! variant;
//   - the quadratic-model stability theory: companion-matrix
//     characteristic polynomials, Lemma 1–3 bounds, and trajectory
//     simulators (internal/quad, internal/poly);
//   - the analytic throughput and memory models of §2.2 and Appendix A
//     (internal/throughput, internal/memmodel);
//   - a small dense-tensor/neural-network substrate with decoupled
//     forward/backward weights (internal/tensor, internal/nn), optimizers
//     and schedules (internal/optim), synthetic datasets (internal/data)
//     and BLEU scoring (internal/bleu);
//   - regenerators for every table and figure of the paper's evaluation
//     (internal/experiments, cmd/pipemare-bench).
//
// Build a trainer with New and functional options, then train with the
// context-aware Run:
//
//	tr, err := pipemare.New(task,
//		pipemare.WithMethod(pipemare.PipeMare),
//		pipemare.WithBatchSize(64), pipemare.WithMicrobatches(8),
//		pipemare.WithT1(480), pipemare.WithT2(0.5),
//	)
//	run, err := tr.Run(ctx, 60)
//
// This package is a thin facade over the internals so that examples and
// downstream users have a single import. See README.md for a quickstart
// and DESIGN.md for the system inventory and experiment index.
package pipemare

import (
	"pipemare/internal/core"
	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/metrics"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
)

// Re-exported core types: see the internal packages for full
// documentation.
type (
	// Method selects GPipe, PipeDream or PipeMare execution.
	Method = core.Method
	// Task is a model+loss bound to an indexed dataset, as a stage program.
	// Five methods: Groups (the weight groups, in forward order), NumTrain,
	// Program (the compiled ops, grouped like Groups), BindMicro (load a
	// microbatch's samples and labels into a machine) and EvalTest. There
	// is no whole-model forward or backward call: each stage's slots run
	// that stage's op range on the weight version the slot reads.
	Task = core.Task
	// Replicable is a Task that can clone itself for data-parallel
	// replication (WithReplicas). A clone's own weights do not matter —
	// the launch handoff replaces them — but its architecture and dtype
	// must be the task's.
	Replicable = core.Replicable
	// Trainer drives pipeline-parallel training.
	Trainer = core.Trainer
	// Run is a recorded training curve with derived metrics.
	Run = metrics.Run
	// ParamGroup is a set of weights pinned to one pipeline stage.
	ParamGroup = pipeline.ParamGroup
	// PartitionMode selects how weight groups split into stages
	// (WithPartition): even by count, cost-balanced, or profiled.
	PartitionMode = pipeline.PartitionMode
	// Schedule maps optimizer steps to base learning rates.
	Schedule = optim.Schedule
	// Optimizer updates parameters with per-parameter learning rates.
	Optimizer = optim.Optimizer
	// Engine schedules a trainer's per-microbatch-slot operations onto
	// goroutines; see internal/engine.
	Engine = engine.Engine
	// DType selects the element type model state trains in (WithDType).
	DType = tensor.DType
)

// Training methods (Table 1).
const (
	GPipe     = core.GPipe
	PipeDream = core.PipeDream
	PipeMare  = core.PipeMare
)

// Partition modes (WithPartition).
const (
	PartitionEven    = pipeline.PartitionEven
	PartitionCost    = pipeline.PartitionCost
	PartitionProfile = pipeline.PartitionProfile
)

// Element dtypes (WithDType).
const (
	Float64 = tensor.Float64
	Float32 = tensor.Float32
)

// NewReferenceEngine returns the default single-goroutine engine, the
// semantic ground truth every other engine is pinned against.
func NewReferenceEngine() Engine { return engine.NewReference() }

// NewConcurrentEngine returns the work-stealing segment-scheduler engine:
// `workers` goroutines (0 = min(P, GOMAXPROCS)) drain the run queues of
// min(P, 2·workers) segments of consecutive stages with up to min(P, N)
// microbatch chains in flight, and a trainer alone commits each segment
// as a job in its queue. Each stream of minibatches starts its workers
// and joins them before it returns, so one engine may serve any number of
// trainers at once. Curves are bit-identical to Reference for every
// worker count; see internal/engine/concurrent.
func NewConcurrentEngine(workers int) Engine {
	return concurrent.New(workers)
}

// NewReplicatedEngine returns inner() — or the Reference engine when
// inner is nil.
//
// Deprecated: replication is not an engine. Pass the engine every replica
// runs to WithEngine directly, at any WithReplicas.
func NewReplicatedEngine(inner func() Engine) Engine {
	if inner == nil {
		return NewReferenceEngine()
	}
	return inner()
}

// FwdDelay returns τ_fwd = (2(P−i)+1)/N for 1-indexed stage i (Table 1).
func FwdDelay(stage1, p, n int) float64 { return pipeline.FwdDelay(stage1, p, n) }
