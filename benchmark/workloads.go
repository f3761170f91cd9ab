package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pipemare"
	"pipemare/internal/experiments"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// workload is one fixed training configuration. Its recipe — task, method,
// stage count, batch shape, optimizer, schedule, dtype — is shared by the
// leader trainer, a wire follower, and the serial Reference run the curve
// is checked against; engine, replication, transport and checkpointing are
// what the workload adds on top, and what the repo's contract says must
// not change a single bit of the curve.
type workload struct {
	name string

	// newTask builds the model and dataset. They are the recipe's fixed
	// ones: the run seed draws the batch order only (WithSeed). Letting it
	// also draw the initial weights or the dataset spreads epochs-to-target
	// by 11–18% across seeds (README.md, "Seeds"), wider than any bound
	// time_to_target_s could be held to.
	newTask func() pipemare.Task
	// recipe returns the options every trainer of this workload shares.
	recipe func(seed int64) []pipemare.Option
	// newOptimizer rebuilds the recipe's optimizer for the optim probe.
	newOptimizer func(ps []*nn.Param) pipemare.Optimizer

	dtype      pipemare.DType
	batch      int  // minibatch size of the recipe; the trainer drops a final short batch
	concurrent bool // concurrent engine, default workers = min(P, GOMAXPROCS); else Reference
	wire       bool // R = 2: one follower behind pipemare.Loopback
	checkpoint bool // WithCheckpoint every epoch

	// target is the frozen train-loss target of time_to_target_s, chosen
	// on the early, steep part of the curve where epochs-to-target spreads
	// 3–4% across batch orders; seeds 1–10 reach it within 6.6 epochs.
	target float64
	// maxTraced caps the traced pass's epochs so no track reaches the
	// recorder's 2^18-event cap; 0 is no cap.
	maxTraced int

	// rows×in·in×out is the workload's dominant matmul (one microbatch
	// through one projection) and rows×classes its softmax, for the tensor
	// probes; rowsPerSample scales nn.Cost's per-row FLOPs to an epoch.
	rows, in, out, classes int
	rowsPerSample          int
}

// minEpochs is the fewest timed epochs a full run measures, however slow
// the box: a fast decile of fewer is one epoch's luck.
const minEpochs = 8

func xfmr(name string, dt pipemare.DType) workload {
	return workload{
		name:    name,
		newTask: func() pipemare.Task { return experiments.EngineBenchTask() },
		recipe: func(seed int64) []pipemare.Option {
			// Later options win, so this is EngineBenchOptions with the run's
			// batch-order seed and the workload's dtype.
			return append(experiments.EngineBenchOptions(4),
				pipemare.WithSeed(seed), pipemare.WithDType(dt))
		},
		newOptimizer: func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4) // EngineBenchOptions' optimizer
		},
		dtype:  dt,
		batch:  32,
		target: 1.6,
		// 4 samples × 7 target positions through a 128→128 projection.
		rows: 28, in: 128, out: 128, classes: 13, rowsPerSample: 7,
	}
}

// workloads returns the four workloads in reporting order. README.md
// records why each exists and which layers it stresses.
func workloads() []workload {
	pipe := xfmr("xfmr-pipe", pipemare.Float32)
	pipe.concurrent = true

	dpWire := xfmr("xfmr-dp-wire", pipemare.Float64)
	dpWire.wire = true

	ckpt := xfmr("xfmr-ckpt", pipemare.Float64)
	ckpt.concurrent = true
	ckpt.checkpoint = true

	cifar := experiments.CIFARLike()
	resmlp := workload{
		name:    "resmlp-fine",
		newTask: func() pipemare.Task { return cifar.NewTask(1) },
		recipe: func(seed int64) []pipemare.Option {
			return []pipemare.Option{
				pipemare.WithMethod(pipemare.PipeMare),
				pipemare.WithStages(0), // one stage per weight group: P = 107
				pipemare.WithBatchSize(cifar.BatchSize),
				pipemare.WithMicrobatchSize(cifar.MicrobatchSize),
				pipemare.WithT1(cifar.T1K), pipemare.WithT2(cifar.T2D),
				pipemare.WithSeed(seed),
				pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer { return cifar.NewOptimizer(ps) }),
				pipemare.WithSchedule(cifar.NewSchedule()),
			}
		},
		newOptimizer: func(ps []*nn.Param) pipemare.Optimizer { return cifar.NewOptimizer(ps) },
		dtype:        pipemare.Float64,
		batch:        cifar.BatchSize,
		concurrent:   true,
		target:       0.6,
		maxTraced:    3,
		rows:         8, in: 16, out: 16, classes: 10, rowsPerSample: 1,
	}
	return []workload{pipe, dpWire, ckpt, resmlp}
}

func (w *workload) replicas() int {
	if w.wire {
		return 2
	}
	return 1
}

// session is one live trainer of a workload with what must outlive it:
// the follower goroutine behind the loopback connection and the
// checkpoint directory.
type session struct {
	tr      *pipemare.Trainer
	ckptDir string

	stepsPerEpoch   int // minibatches per epoch
	samplesPerEpoch int // training samples those minibatches cover

	stopFollower context.CancelFunc
	followerDone chan error
}

// open builds the workload's trainer: the recipe plus engine, follower,
// checkpointing, and any extra options (the traced pass adds WithTrace).
// dir is where this session's checkpoints go.
func (w *workload) open(seed int64, dir string, extra ...pipemare.Option) (*session, error) {
	return w.openWith(pipemare.New, seed, dir, extra...)
}

// restore is open resumed from the newest checkpoint under from.
func (w *workload) restore(seed int64, from, dir string) (*session, error) {
	return w.openWith(func(task pipemare.Task, opts ...pipemare.Option) (*pipemare.Trainer, error) {
		return pipemare.Restore(from, task, opts...)
	}, seed, dir)
}

func (w *workload) openWith(build func(pipemare.Task, ...pipemare.Option) (*pipemare.Trainer, error), seed int64, dir string, extra ...pipemare.Option) (*session, error) {
	task := w.newTask()
	s := &session{stepsPerEpoch: task.NumTrain() / w.batch}
	s.samplesPerEpoch = s.stepsPerEpoch * w.batch
	opts := w.recipe(seed)
	switch {
	case w.wire:
		lis, dial := pipemare.Loopback()
		ctx, cancel := context.WithCancel(context.Background())
		s.stopFollower = cancel
		s.followerDone = make(chan error, 1)
		go func() {
			s.followerDone <- pipemare.ServeFollower(ctx, lis, w.newTask(), w.recipe(seed)...)
		}()
		// Reference inner engines: the replication axis alone, with the
		// default (sharded) commit.
		opts = append(opts, pipemare.WithTransport(dial),
			pipemare.WithEngine(pipemare.NewReplicatedEngine(nil)))
	case w.concurrent:
		opts = append(opts, pipemare.WithEngine(pipemare.NewConcurrentEngine(0)))
	}
	if w.checkpoint {
		s.ckptDir = dir
		// every = steps per epoch: exactly one checkpoint per epoch, so
		// epoch times stay unimodal.
		opts = append(opts, pipemare.WithCheckpoint(dir, s.stepsPerEpoch))
	}
	tr, err := build(task, append(opts, extra...)...)
	if err != nil {
		if s.stopFollower != nil {
			s.stopFollower()
			<-s.followerDone
		}
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	s.tr = tr
	return s, nil
}

// close says goodbye to the follower, waits for it to exit, and removes
// the session's checkpoints.
func (s *session) close() error {
	err := s.tr.Close()
	if s.followerDone != nil {
		if err != nil {
			s.stopFollower() // the goodbye may not have reached it
		}
		if ferr := <-s.followerDone; err == nil {
			err = ferr
		}
		s.stopFollower()
	}
	if s.ckptDir != "" {
		if rerr := os.RemoveAll(s.ckptDir); err == nil {
			err = rerr
		}
	}
	return err
}

// checkpoints lists the session's checkpoint files, oldest first (the
// step number in the name is zero-padded).
func (s *session) checkpoints() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(s.ckptDir, "ckpt-*.pm"))
	sort.Strings(paths)
	return paths, err
}

// pruneCheckpoints deletes all but the newest checkpoint. The benchmark
// calls it between epochs, outside the timed call, so a 50 MB file per
// epoch does not fill the disk.
func (s *session) pruneCheckpoints() error {
	if s.ckptDir == "" {
		return nil
	}
	paths, err := s.checkpoints()
	if err != nil {
		return err
	}
	for i := 0; i < len(paths)-1; i++ {
		if err := os.Remove(paths[i]); err != nil {
			return err
		}
	}
	return nil
}
