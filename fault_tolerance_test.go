package pipemare_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/faults"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/transport"
)

// ftBase is the shared recipe of the fault-tolerance suite: the
// all-techniques PipeMare configuration on the 4-stage quadratic task,
// 4 minibatches per epoch (train 32, batch 8), 8 microbatches so three
// replicas each own a non-empty chunk.
func ftBase() []pipemare.Option {
	return append(methodOpts(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
}

// TestChurnedRunsCheckpointsRestore restores checkpoints that quad-ft
// cells wrote while their membership changed. The evict cell's step-5
// checkpoint (epoch 2, minibatch 1) predates its fault: a fresh R=2
// trainer restored from it resumes mid-epoch, so "evicted run" ≡ "fresh
// smaller run from the checkpoint" end to end. It reruns minibatches 2–4
// of epoch 2, whose averaged loss covers 3 of 4 minibatches and is not
// comparable, but whose end-of-epoch metric and parameter norm, functions
// of the state alone, and every later epoch must match the Reference
// curve. The churn-join-ckpt cell's newest checkpoint, written after the
// join, restores into a fresh trainer at the final step.
func TestChurnedRunsCheckpointsRestore(t *testing.T) {
	rc := recipeNamed(t, "quad-ft")
	ref := reference(t, rc, false)
	t.Run("evict", func(t *testing.T) {
		dir := placements["evict"].run(t, rc)
		tr, err := pipemare.New(rc.build(), withOpts(rc.opts, pipemare.WithReplicas(2), pipemare.WithFaultTolerance())...)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if err := tr.RestoreFrom(filepath.Join(dir, "ckpt-00000005.pm")); err != nil {
			t.Fatalf("restore: %v", err)
		}
		tail, err := tr.Run(context.Background(), 3)
		if err != nil {
			t.Fatalf("restored run: %v", err)
		}
		if tail.Epochs() != 3 {
			t.Fatalf("restored run recorded %d epochs, want 3", tail.Epochs())
		}
		if tail.Metric[0] != ref.Metric[1] || tail.ParamNorm[0] != ref.ParamNorm[1] {
			t.Fatalf("restored epoch 2 state (metric %v, norm %v) != reference (%v, %v)",
				tail.Metric[0], tail.ParamNorm[0], ref.Metric[1], ref.ParamNorm[1])
		}
		requireIdentical(t, "restored-tail", sliceRun(ref, 2, 4), sliceRun(tail, 1, 3))
	})
	t.Run("churn-join-ckpt", func(t *testing.T) {
		dir := placements["churn-join-ckpt"].run(t, rc)
		tr, err := pipemare.New(rc.build(), rc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if step, err := tr.RestoreLatest(dir); err != nil || step != 16 {
			t.Fatalf("restore of a post-join checkpoint: step %d, err %v, want 16, nil", step, err)
		}
	})
}

// TestCrashMidCollectiveNeverDeadlocks runs quad-ft's crash cells: a
// follower's link dies at each commit message or chunk-0 prefix, at R 3
// and 2, with fault tolerance (an eviction on the curve) and without (an
// error naming the replica), never a hang.
func TestCrashMidCollectiveNeverDeadlocks(t *testing.T) { runFTTest(t) }

// TestCheckpointRestoreResumesBitIdentical pins the checkpoint/restore
// satellite at an epoch boundary: a run checkpointed every 4 steps (one
// epoch) for 3 epochs, restored via pipemare.Restore into a fresh
// trainer, must retrace epochs 4–6 of the uninterrupted reference
// exactly — loss, metric and parameter norm. The restored replica count
// also shrinks from 3 (in-process) to 2, exercising the elastic-
// membership claim without a transport in the loop.
func TestCheckpointRestoreResumesBitIdentical(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 24) }
	base := ftBase()
	ref := runCurve(t, build, 6, 1, base...)
	dir := t.TempDir()
	tr1, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(3), pipemare.WithCheckpoint(dir, 4))...)
	if err != nil {
		t.Fatal(err)
	}
	head, err := tr1.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "checkpointed-head", sliceRun(ref, 0, 3), head)
	if writes, ns := tr1.CheckpointStats(); writes != 3 || ns <= 0 {
		t.Fatalf("checkpoint stats (%d writes, %dns), want 3 writes and positive time", writes, ns)
	}
	if err := tr1.Close(); err != nil {
		t.Fatal(err)
	}
	tr2, err := pipemare.Restore(dir, build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithCheckpoint(dir, 4))...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	tail, err := tr2.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "restored-tail", sliceRun(ref, 3, 6), tail)
}

// cancelTask is a quadTask whose BindMicro cancels the run's context at
// its at-th call: a Run interrupted inside the minibatch of the test's
// choosing.
type cancelTask struct {
	*quadTask
	calls, at int
	cancel    context.CancelFunc
}

func (c *cancelTask) BindMicro(m *nn.Machine, idx []int) {
	if c.calls++; c.calls == c.at {
		c.cancel()
	}
	c.quadTask.BindMicro(m, idx)
}

// TestCheckpointAfterCancelledRunResumes pins that a Run after a cancel
// resumes at the first uncommitted minibatch, exactly as a restore at
// that step does: a run cancelled inside epoch 2's third minibatch and
// then run on for 3 epochs lands on the uninterrupted run's epoch-2..4
// parameters and metrics, commits exactly the 16 steps of 4 epochs, and
// the checkpoint it wrote at step 9 (mid-epoch 3) restores onto the same
// curve. It is a regression: the resumed Run used to retrain the epoch's
// committed minibatches, and the checkpoints it then wrote carried step
// and epoch clocks that disagreed.
func TestCheckpointAfterCancelledRunResumes(t *testing.T) {
	build := func() *quadTask { return newQuadTask(4, 32, 8, 5) } // 4 minibatches per epoch
	base := []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithSeed(11),
		pipemare.WithT1(12), pipemare.WithT2(0.3),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSchedule(optim.Constant(0.05))}
	ref := runCurve(t, func() pipemare.Task { return build() }, 4, 1, base...)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The 27th microbatch is epoch 2's minibatch 2 (0-based): steps 5 and
	// 6 have committed.
	task := &cancelTask{quadTask: build(), at: 27, cancel: cancel}
	tr, err := pipemare.New(task, append(append([]pipemare.Option{}, base...), pipemare.WithCheckpoint(dir, 1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := tr.Run(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	tail, err := tr.Run(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := range tail.Epochs() {
		if tail.ParamNorm[e] != ref.ParamNorm[e+1] || tail.Metric[e] != ref.Metric[e+1] {
			t.Fatalf("epoch %d after the cancel: norm %v, metric %v; uninterrupted %v, %v",
				e+2, tail.ParamNorm[e], tail.Metric[e], ref.ParamNorm[e+1], ref.Metric[e+1])
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || filepath.Base(files[len(files)-1]) != "ckpt-00000016.pm" {
		t.Fatalf("checkpoints %v, want the newest at step 16: 4 epochs commit 16 steps", files)
	}
	restored, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreFrom(filepath.Join(dir, "ckpt-00000009.pm")); err != nil {
		t.Fatal(err)
	}
	run, err := restored.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for e := range run.Epochs() {
		if run.ParamNorm[e] != ref.ParamNorm[e+2] {
			t.Fatalf("epoch %d restored from step 9: norm %v, uninterrupted %v", e+3, run.ParamNorm[e], ref.ParamNorm[e+2])
		}
	}
}

// TestRestoreLatestSkipsCorruptCheckpoint pins restore robustness: a
// corrupted newest checkpoint (one flipped payload byte, caught by the
// frame CRC) must not half-apply — RestoreLatest falls back to the next
// older file and reports its step; with every file damaged it returns
// an error and leaves the trainer untouched.
func TestRestoreLatestSkipsCorruptCheckpoint(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 25) }
	base := ftBase()
	dir := t.TempDir()
	tr1, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithCheckpoint(dir, 1))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr1.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	// corrupt flips one payload byte at off — distinct offsets below, so
	// re-corrupting an already-damaged file never XORs it back to valid.
	corrupt := func(path string, off func(n int) int) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[off(len(b))] ^= 0x40
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(filepath.Join(dir, "ckpt-00000008.pm"), func(n int) int { return n / 2 })
	tr2, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	step, err := tr2.RestoreLatest(dir)
	if err != nil {
		t.Fatalf("restore with one corrupt file: %v", err)
	}
	if step != 7 {
		t.Fatalf("restored step %d, want 7 (the newest valid checkpoint)", step)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		corrupt(f, func(n int) int { return n / 3 })
	}
	if _, err := tr2.RestoreLatest(dir); err == nil {
		t.Fatal("restore succeeded although every checkpoint is corrupt")
	}
}

// TestRestoreLatestReportsAFailedResync pins that RestoreLatest falls back
// to an older checkpoint only for a file it cannot use: when a follower's
// link dies during the restore's resync — on the first stage record after
// the launch handoff's P — the restore fails at once with an error naming
// the replica, instead of re-applying every older file and then calling
// the newest, valid one invalid.
func TestRestoreLatestReportsAFailedResync(t *testing.T) {
	const p = 4 // stages of the quadratic task below
	build := func() pipemare.Task { return newQuadTask(p, 32, 8, 29) }
	dir := t.TempDir()
	base := append(ftBase(), pipemare.WithCheckpoint(dir, 1))
	tr1, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr1.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return ftBase() })
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgSetState, Nth: p + 1, Op: faults.Kill})}
	_, err = pipemare.Restore(dir, build(), append(base, pipemare.WithTransport(dialers...))...)
	if err == nil || !strings.Contains(err.Error(), "replica 1") || strings.Contains(err.Error(), "no valid checkpoint") {
		t.Fatalf("restore with a follower dying mid-resync: %v; want an error naming replica 1, not an invalid checkpoint", err)
	}
	wait() // the killed worker errors by design
}

// specTail decodes the fault-tolerance flag — the recipe's last byte, so
// the payload's — and the heartbeat cadence, the spec's fourth field, from
// a hello's payload.
func specTail(payload []byte) (ft bool, heartbeat time.Duration) {
	c := transport.NewCursor(payload[len(payload)-1:])
	ft = c.Bool()
	c = transport.NewCursor(payload[12:20])
	return ft, time.Duration(c.U64())
}

// TestImpliedFaultToleranceAnnouncesDefaultHeartbeat pins that the
// heartbeat default follows fault tolerance however it was turned on: a
// checkpointing transport run is fault-tolerant without
// WithFaultTolerance, so its followers must be told the 1s cadence —
// without one, a hung peer blocks a run that could evict it.
func TestImpliedFaultToleranceAnnouncesDefaultHeartbeat(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 45) }
	base := ftBase()
	log := &wireLog{}
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	dialers[0] = logDialer{dialers[0], log}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithCheckpoint(t.TempDir(), 1), pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	wait()
	hellos := log.payloads(transport.MsgHello)
	if len(hellos) != 1 {
		t.Fatalf("the leader sent %d hellos, want 1", len(hellos))
	}
	if ft, hb := specTail(hellos[0]); !ft || hb != transport.DefaultHeartbeat {
		t.Fatalf("hello announced FT=%t, heartbeat %v; want FT=true, heartbeat %v", ft, hb, transport.DefaultHeartbeat)
	}
}

// TestInProcessElasticLeaderWelcomesWithItsHeartbeat pins that an
// explicit WithHeartbeat reaches joiners of a leader whose initial
// followers are in-process: the cadence is resolved once for the trainer,
// not only when it dials followers.
func TestInProcessElasticLeaderWelcomesWithItsHeartbeat(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 46) }
	base := ftBase()
	joiner := &wireLog{}
	jlis, jwait := startJoiner(t, build, base)
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithElastic(),
		pipemare.WithHeartbeat(50*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	acceptAndPark(t, tr, logListener{jlis, joiner})
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jwait(); err != nil {
		t.Fatalf("joiner: %v", err)
	}
	hellos := joiner.payloads(transport.MsgHello)
	if len(hellos) != 1 {
		t.Fatalf("the joiner was sent %d hellos, want 1", len(hellos))
	}
	if ft, hb := specTail(hellos[0]); !ft || hb != 50*time.Millisecond {
		t.Fatalf("hello announced FT=%t, heartbeat %v; want FT=true, heartbeat 50ms", ft, hb)
	}
}

// TestCloseIdempotent pins the Close contract: closing twice — after a
// successful run and after a failed one — returns nil the second time
// and never panics or double-releases followers.
func TestCloseIdempotent(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 27) }
	base := ftBase()
	tr, err := pipemare.New(build(), base...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// Close after a failed Run: a killed link without fault tolerance
	// aborts the run; the trainer must still close, and close again as a
	// no-op.
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 2, Op: faults.Kill})}
	tr2, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.Run(context.Background(), 2); err == nil {
		t.Fatal("run survived a killed link without fault tolerance")
	}
	tr2.Close() // first close may report the dead link
	if err := tr2.Close(); err != nil {
		t.Fatalf("close after failed run is not idempotent: %v", err)
	}
	wait()
}

// TestFaultToleranceOptionValidation pins Restore's error path; the
// options' own rows are in TestOptionValidationErrors.
func TestFaultToleranceOptionValidation(t *testing.T) {
	if _, err := pipemare.Restore(t.TempDir(), newQuadTask(4, 32, 8, 28), ftBase()...); err == nil ||
		!strings.Contains(err.Error(), "no checkpoints") {
		t.Fatalf("restore from empty dir: err = %v", err)
	}
}
