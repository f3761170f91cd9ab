package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pipemare"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed pass
	quick   bool    // smoke mode: 1 warm + 2 timed epochs, 1 traced, probes at 1 iteration
	timed   bool    // report the end-to-end metrics (trace 0)
	layers  bool    // report the per-layer metrics (trace 1)
	scratch string  // directory for checkpoint files
}

// runResult is one run's record in the results file.
type runResult struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Correct      bool     `json:"correct"`
	OpsAttempted int      `json:"ops_attempted"`
	OpsFailed    int      `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`

	SamplesPerEpoch int `json:"samples_per_epoch"`
	SetupEpochs     int `json:"setup_epochs"`  // warm-up epochs, one per set-up
	TimedEpochs     int `json:"timed_epochs"`  // = ops_attempted
	TracedEpochs    int `json:"traced_epochs"` // 0 without the traced pass
	VerifyEpochs    int `json:"verify_epochs"` // serial Reference epochs of the curve check

	// Losses is the workload's train-loss curve: the warm-up epoch, then
	// every timed epoch.
	Losses []float64 `json:"losses"`
	// The raw series behind the end-to-end metrics, as measured: wall, CPU
	// and stolen seconds of every set-up and every timed epoch.
	Setups []stint `json:"setups"`
	Epochs []stint `json:"epochs"`

	Metrics map[string]metric `json:"metrics"`
	names   []string          // Metrics in reporting order
}

// verifyEpochs is V: how many epochs of the serial Reference run the
// workload's curve must equal bit for bit.
const verifyEpochs = 2

// A timed run sets the workload up at least minSetups times, and goes on —
// to at most maxSetups — while all of them together took less than
// setupBudgetS: a set-up of a tenth of a second is cheap to repeat and
// too short to trust three of. setup_s is the median; all trainers but
// the last are closed again at once.
const (
	minSetups    = 3
	maxSetups    = 9
	setupBudgetS = 1.5
)

// fastQuantile is the quantile of a run's epoch times (own seconds and
// CPU seconds) the end-to-end metrics are computed from. What the steal
// column does not show — a busy sibling thread, a cold cache after a
// stolen stretch, guest memory the host has to fault back in, a slow
// write to the virtual disk — only ever slows an epoch down, so the fast
// end of the distribution is the steady one (README.md, "Noise"). The raw
// median and tail are per-layer metrics, proc.epoch_s_p50 and
// proc.epoch_s_tail.
const fastQuantile = 0.10

// layersTimedShare is the share of -seconds the timed pass gets when a
// run reports per-layer metrics only: enough epochs for the T rows and
// the untraced side of trace.overhead_frac, the rest left to the traced
// pass and the probes.
const layersTimedShare = 0.4

type runner struct {
	w     *workload
	cfg   runConfig
	spans *spanRecorder
	res   *runResult
	dirs  int
}

// runWorkload measures one workload once. An error means the measurement
// itself could not be made; a failed check is recorded in the result.
func runWorkload(w *workload, cfg runConfig, spans *spanRecorder) (*runResult, error) {
	r := &runner{w: w, cfg: cfg, spans: spans,
		res: &runResult{Workload: w.name, Seed: cfg.seed, Correct: true, Metrics: map[string]metric{}}}
	spans.workload = w.name
	var err error
	spans.time("run", func() { err = r.run() })
	return r.res, err
}

func (r *runner) fail(format string, args ...any) {
	r.res.Correct = false
	r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
}

// newDir names a fresh checkpoint directory under the scratch directory.
func (r *runner) newDir() string {
	r.dirs++
	return filepath.Join(r.cfg.scratch, fmt.Sprintf("%s-%d-%d", r.w.name, r.cfg.seed, r.dirs))
}

// setup is what setup_s times: build the task, build the trainer (for
// the wire workload also serve, dial and handshake the follower) and
// train one warm-up epoch so pools and tape arenas reach steady state.
func (r *runner) setup() (s *session, warmLoss float64, took stint, err error) {
	took = r.spans.clock("setup", func() {
		if s, err = r.w.open(r.cfg.seed, r.newDir()); err != nil {
			return
		}
		var run *pipemare.Run
		if run, err = s.tr.Run(context.Background(), 1); err == nil && len(run.Loss) == 1 {
			warmLoss = run.Loss[0]
		} else if err == nil {
			err = fmt.Errorf("%s: warm-up epoch recorded %d losses", r.w.name, len(run.Loss))
		}
		if err != nil {
			s.close()
		}
	})
	return s, warmLoss, took, err
}

// setUp sets the workload up several times (once where setup_s is not
// reported), closing each trainer before building the next, and returns
// the last one with its warm-up loss and every set-up's stint.
func (r *runner) setUp() (s *session, warmLoss float64, took []stint, err error) {
	least, most := minSetups, maxSetups
	if r.cfg.quick || !r.cfg.timed {
		least, most = 1, 1
	}
	total := 0.0
	for i := 0; i < least || (i < most && total < setupBudgetS); i++ {
		if s != nil {
			if err = s.close(); err != nil {
				return nil, 0, nil, err
			}
		}
		var one stint
		if s, warmLoss, one, err = r.setup(); err != nil {
			return nil, 0, nil, err
		}
		took = append(took, one)
		total += one.Wall
		r.res.SetupEpochs++
	}
	return s, warmLoss, took, nil
}

// pass is what the timed pass measured.
type pass struct {
	epochs []stint   // each timed epoch call
	losses []float64 // train loss of each timed epoch
	alloc  uint64    // bytes allocated over the pass
	gcs    uint32    // GC cycles over the pass
	ckptNs int64     // Trainer.CheckpointStats wall over the pass
	heap   float64   // live heap after the pass, MiB
}

// timedPass trains epoch after epoch, closed loop — the next call starts
// when the previous returns — until budget seconds have passed and at
// least atLeast epochs are in, and then on, to at most 2·minEpochs, while
// the train loss has not fallen to target: a seed whose curve crosses an
// epoch or two late costs seconds, not the run. One epoch call is one
// operation.
func (r *runner) timedPass(s *session, budget float64, atLeast int, target float64) pass {
	var p pass
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ckpt0 := s.tr.CheckpointStats()
	start := time.Now()
	reached := false
	for len(p.epochs) < atLeast || time.Since(start).Seconds() < budget || (!reached && len(p.epochs) < 2*minEpochs) {
		var run *pipemare.Run
		var err error
		p.epochs = append(p.epochs, r.spans.clock("epoch", func() { run, err = s.tr.Run(context.Background(), 1) }))
		loss := math.NaN()
		if run != nil && len(run.Loss) == 1 {
			loss = run.Loss[0]
		}
		p.losses = append(p.losses, loss)
		reached = reached || loss <= target
		r.res.OpsAttempted++
		if err != nil || run.Diverged || math.IsNaN(loss) || math.IsInf(loss, 0) {
			r.res.OpsFailed++
			r.fail("timed epoch %d: err=%v loss=%v", len(p.epochs), err, loss)
			break // the trainer is not in a state worth timing further
		}
		if err := s.pruneCheckpoints(); err != nil {
			r.fail("pruning checkpoints: %v", err)
		}
	}
	_, ckpt1 := s.tr.CheckpointStats()
	p.ckptNs = ckpt1 - ckpt0
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.gcs = after.NumGC - before.NumGC

	// Live heap: what the trainer (and an in-process follower) retains —
	// weights, version rings, moments, T2 state, tape arenas. Two
	// collections so finalizer-freed memory is gone too.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heap = float64(after.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(s)
	return p
}

// failAll counts every timed epoch as failed: a wrong curve or a missed
// target disqualifies the whole run, not one epoch of it.
func (r *runner) failAll(format string, args ...any) {
	r.res.OpsFailed = r.res.OpsAttempted
	r.fail(format, args...)
}

// verifyCurve trains the serial run — Reference engine, one replica, in
// process, no checkpoint, same recipe and seed — for verifyEpochs epochs
// and requires the workload's first losses to equal it bit for bit: the
// repo's standing contract that engine, replica, transport and checkpoint
// choice leave the arithmetic untouched. It returns the faster of the
// serial epochs in own seconds, the plain single-worker baseline.
func (r *runner) verifyCurve(curve []float64) (serialEpochS float64, err error) {
	r.spans.time("verify", func() {
		var ref *pipemare.Trainer
		if ref, err = pipemare.New(r.w.newTask(), r.w.recipe(r.cfg.seed)...); err != nil {
			return
		}
		defer ref.Close()
		serialEpochS = math.Inf(1)
		for e := 0; e < verifyEpochs && e < len(curve); e++ {
			var run *pipemare.Run
			took := r.spans.clock("serial-epoch", func() { run, err = ref.Run(context.Background(), 1) })
			if err != nil {
				return
			}
			r.res.VerifyEpochs++
			serialEpochS = math.Min(serialEpochS, took.own())
			if math.Float64bits(run.Loss[0]) != math.Float64bits(curve[e]) {
				r.failAll("curve check: epoch %d loss %v, serial Reference %v", e+1, curve[e], run.Loss[0])
			}
		}
	})
	return serialEpochS, err
}

// verifyRestore restores the checkpoint the warm-up epoch wrote into a
// fresh trainer, trains one epoch, and requires its loss to equal the
// uninterrupted run's next epoch — the first timed one — bit for bit.
func (r *runner) verifyRestore(from string, want float64) (err error) {
	r.spans.time("verify-restore", func() {
		var s *session
		if s, err = r.w.restore(r.cfg.seed, from, r.newDir()); err != nil {
			return
		}
		defer s.close()
		var run *pipemare.Run
		if run, err = s.tr.Run(context.Background(), 1); err != nil {
			return
		}
		if math.Float64bits(run.Loss[0]) != math.Float64bits(want) {
			r.failAll("restore check: resumed epoch loss %v, uninterrupted %v", run.Loss[0], want)
		}
	})
	return err
}

// keepFirstCheckpoint moves the warm-up epoch's checkpoint out of the
// session's directory, where pruning would delete it, and returns the
// directory it now lives in.
func (r *runner) keepFirstCheckpoint(s *session) (string, error) {
	paths, err := s.checkpoints()
	if err != nil {
		return "", err
	}
	if len(paths) != 1 {
		return "", fmt.Errorf("%s: %d checkpoints after the warm-up epoch, want 1", r.w.name, len(paths))
	}
	dir := r.newDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, os.Rename(paths[0], filepath.Join(dir, filepath.Base(paths[0])))
}

func (r *runner) run() error {
	cfg := r.cfg
	s, warmLoss, setups, err := r.setUp()
	if err != nil {
		return err
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	r.res.SamplesPerEpoch = s.samplesPerEpoch

	restoreFrom := ""
	if r.w.checkpoint {
		if restoreFrom, err = r.keepFirstCheckpoint(s); err != nil {
			return err
		}
		defer os.RemoveAll(restoreFrom)
	}

	// Only a full timed run reports time_to_target_s: two quick epochs
	// reach no real target, and the per-layer rows need none.
	budget, atLeast, target := cfg.seconds, minEpochs, r.w.target
	switch {
	case cfg.quick:
		budget, atLeast, target = 0, 2, math.Inf(1)
	case !cfg.timed:
		budget, atLeast, target = cfg.seconds*layersTimedShare, minEpochs/2, math.Inf(1)
	}
	p := r.timedPass(s, budget, atLeast, target)
	r.res.TimedEpochs = len(p.epochs)
	r.res.Setups, r.res.Epochs = setups, p.epochs
	r.res.Losses = []float64{warmLoss}
	for _, l := range p.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			break // a failed epoch, already recorded; JSON has no spelling for it
		}
		r.res.Losses = append(r.res.Losses, l)
	}

	serialEpochS, err := r.verifyCurve(r.res.Losses)
	if err != nil {
		return err
	}
	if restoreFrom != "" {
		if err := r.verifyRestore(restoreFrom, p.losses[0]); err != nil {
			return err
		}
	}

	epochS := sortedCopy(column(p.epochs, stint.own)).at(fastQuantile)
	samples := float64(s.samplesPerEpoch)
	if cfg.timed {
		toTarget, reached := epochsToTarget(warmLoss, p.losses, target)
		if !reached {
			toTarget = float64(len(p.epochs))
			r.failAll("train loss never reached the target %v in %d timed epochs", target, len(p.epochs))
		}
		e2e := metricSet{
			"setup_s":       median(column(setups, stint.own)),
			"samples_per_s": samples / epochS,
			// Epochs to target × the epoch time above, not the sum of those
			// particular epochs: the same product of statistical and
			// hardware efficiency, without the first epochs' jitter.
			"time_to_target_s": toTarget * epochS,
			// CPU time as the kernel counts it: stolen time is not in it.
			"cpu_s_per_ksample": sortedCopy(column(p.epochs, func(e stint) float64 { return e.CPU })).at(fastQuantile) / (samples / 1000),
			"live_heap_mb":      p.heap,
		}
		if err := r.emit(e2e, endToEnd); err != nil {
			return err
		}
	}
	if cfg.layers {
		layer := metricSet{}
		r.processMetrics(layer, p, serialEpochS)
		if err := r.probes(layer, s); err != nil {
			return err
		}
		// The traced session must have the heap to itself: with a second
		// trainer live the collector's goal doubles and the traced epochs
		// pay for faulting the new memory in, which reads as tracing
		// overhead.
		err := s.close()
		s = nil
		if err != nil {
			return err
		}
		if err := r.tracedPass(layer, column(p.epochs, stint.own)); err != nil {
			return err
		}
		if err := r.emit(layer, perLayer); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) emit(m metricSet, table []metricDef) error {
	names, vals, err := m.report(table)
	if err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	r.res.names = append(r.res.names, names...)
	for name, v := range vals {
		r.res.Metrics[name] = v
	}
	return nil
}

// processMetrics fills the T rows: per-layer numbers that come from the
// timed pass itself.
func (r *runner) processMetrics(m metricSet, p pass, serialEpochS float64) {
	epochs := float64(len(p.epochs))
	var all stint
	for _, e := range p.epochs {
		all.Wall, all.CPU, all.Stolen = all.Wall+e.Wall, all.CPU+e.CPU, all.Stolen+e.Stolen
	}
	sorted := sortedCopy(column(p.epochs, func(e stint) float64 { return e.Wall }))
	p50 := sorted.at(0.5)
	pct := tailPercentile(len(p.epochs))
	m["proc.machine_speed"] = all.own() / all.Wall
	m["proc.epoch_s_p50"] = p50
	m["proc.epoch_s_tail"] = sorted.at(pct / 100)
	m["proc.epoch_tail_pct"] = pct
	m["proc.epoch_samples"] = epochs
	m["proc.alloc_mb_per_epoch"] = float64(p.alloc) / (1 << 20) / epochs
	m["proc.gc_cycles_per_epoch"] = float64(p.gcs) / epochs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	} else {
		m["proc.peak_rss_mb"] = 0
	}

	m["core.ckpt_stall_frac"] = float64(p.ckptNs) / 1e9 / all.Wall

	// Own seconds against own seconds: the serial run a few seconds later
	// may sit in a differently stolen stretch.
	own50 := median(column(p.epochs, stint.own))
	m["engine.serial_epoch_s"] = serialEpochS
	m["engine.speedup_vs_serial"] = serialEpochS / own50
	// samples/s over R × the serial run's samples/s; the sample counts cancel.
	m["replica.scaling_eff"] = serialEpochS / (float64(r.w.replicas()) * own50)
}
