package pipemare_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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

// sliceRun copies epochs [lo, hi) of a recorded curve, so a resumed
// run's entries can be compared against the matching reference window
// with requireIdentical.
func sliceRun(r *pipemare.Run, lo, hi int) *pipemare.Run {
	return &pipemare.Run{Loss: r.Loss[lo:hi], Metric: r.Metric[lo:hi],
		ParamNorm: r.ParamNorm[lo:hi], Diverged: r.Diverged}
}

// runWithin guards against the one failure mode eviction must never
// have: a hang. f runs in its own goroutine; a run that neither
// completes nor errors within d fails the test.
func runWithin(t *testing.T, d time.Duration, name string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s: neither completed nor errored within %v (deadlock)", name, d)
		return nil
	}
}

// TestEvictionMatchesFreshSmallerRun is the headline fault-tolerance
// pin: killing follower replica 2's link on its
// 6th chunk (epoch 2, minibatch 2 of an R=3 loopback run) must evict
// exactly that replica, replay the interrupted minibatch over the two
// survivors, and finish training with a curve bit-identical to the
// fault-free single-replica reference — the determinism invariant makes
// the post-eviction R=2 group indistinguishable from a run that never
// had a third replica. A fresh R=2 trainer restored from the checkpoint
// written just before the faulted minibatch must then retrace the same
// curve, pinning that "evicted run" ≡ "fresh smaller run from the
// checkpoint" end to end.
func TestEvictionMatchesFreshSmallerRun(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 21) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)
	dir := t.TempDir()
	dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
	dialers[1] = &faults.Dialer{Inner: dialers[1], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 6, Op: faults.Kill})}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(3),
		pipemare.WithFaultTolerance(),
		pipemare.WithCheckpoint(dir, 1),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Run(context.Background(), 4)
	if err != nil {
		t.Fatalf("run did not survive the eviction: %v", err)
	}
	if tr.Replicas() != 2 {
		t.Fatalf("%d replicas after the fault, want 2 (one evicted)", tr.Replicas())
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	errs := wait()
	if errs[0] != nil {
		t.Fatalf("surviving worker: %v", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("killed worker's serve loop ended without error")
	}
	requireIdentical(t, "evict", ref, got)

	// The fault hit epoch 2, minibatch 2 — so the step-5 checkpoint
	// (epoch 2, minibatch 1) predates it. A fresh R=2 trainer restored
	// from that file resumes mid-epoch: it reruns minibatches 2–4 of
	// epoch 2 and the remaining epochs. The partial epoch's averaged
	// loss covers 3 of 4 minibatches (not comparable), but its
	// end-of-epoch metric and parameter norm — functions of the state
	// alone — and every later epoch must match the reference exactly.
	tr2, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithFaultTolerance())...)
	if err != nil {
		t.Fatalf("fresh R=2 trainer: %v", err)
	}
	if err := tr2.RestoreFrom(filepath.Join(dir, "ckpt-00000005.pm")); err != nil {
		t.Fatalf("restore: %v", err)
	}
	tail, err := tr2.Run(context.Background(), 3)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if tail.Epochs() != 3 {
		t.Fatalf("restored run recorded %d epochs, want 3", tail.Epochs())
	}
	for e := 0; e < 3; e++ {
		if tail.Metric[e] != ref.Metric[e+1] || tail.ParamNorm[e] != ref.ParamNorm[e+1] {
			t.Fatalf("restored epoch %d state (metric %v, norm %v) != reference (%v, %v)",
				e, tail.Metric[e], tail.ParamNorm[e], ref.Metric[e+1], ref.ParamNorm[e+1])
		}
		if e > 0 && tail.Loss[e] != ref.Loss[e+1] {
			t.Fatalf("restored epoch %d loss %v != reference %v", e, tail.Loss[e], ref.Loss[e+1])
		}
	}
}

// TestCrashMidCollectiveNeverDeadlocks is the commit's fault contract,
// message by message: it kills follower replica 1's link on the 2nd
// message of each type the commit sends — the scatter's gradients,
// prepare, the stage step, the gather's fetch of the owner's state and
// its import of the others' — and, before the commit, as the leader reads
// its 2nd chunk-0 prefix (replica 1 holds chunk 0) — at R=3 and R=2, under
// -race. The stage step (scale, update and finish in one message) is cut
// at three points: the scale row kills the link as the follower receives
// the step, before it scales; the step row as the leader sends it; the
// finish row as the follower acks it, after its update and finish ran.
// The gather's imports have their own message, so the import row's 2nd
// is the first gather's 2nd, past the launch handoff. With fault tolerance every kill is an
// eviction (R → R−1) with a curve bit-identical to single-replica
// Reference: a death up to
// prepare replays the minibatch, a later one has the leader finish the
// dead owner's shard. Without it every kill is an error naming the
// replica — the dead follower held the only copy of its moment shard —
// and never a hang or a leaked goroutine.
func TestCrashMidCollectiveNeverDeadlocks(t *testing.T) {
	phases := []struct {
		name     string
		rule     faults.Rule
		follower bool // rule runs on the follower's end of the link
	}{
		{"scatter", faults.Rule{Dir: faults.Send, Type: transport.MsgSetGrads, Nth: 2, Op: faults.Kill}, false},
		{"prepare", faults.Rule{Dir: faults.Send, Type: transport.MsgPrepare, Nth: 2, Op: faults.Kill}, false},
		{"scale", faults.Rule{Dir: faults.Recv, Type: transport.MsgStep, Nth: 2, Op: faults.Kill}, true},
		{"step", faults.Rule{Dir: faults.Send, Type: transport.MsgStep, Nth: 2, Op: faults.Kill}, false},
		{"finish", faults.Rule{Dir: faults.Recv, Type: transport.MsgStep, Nth: 2, Op: faults.KillReply}, true},
		{"gather", faults.Rule{Dir: faults.Send, Type: transport.MsgGetState, Nth: 2, Op: faults.Kill}, false},
		{"import", faults.Rule{Dir: faults.Send, Type: transport.MsgImport, Nth: 2, Op: faults.Kill}, false},
		{"chunk-0", faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 2, Op: faults.Kill}, false},
	}
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 23) }
	base := ftBase()
	ref := runCurve(t, build, 2, 1, base...)
	for _, ph := range phases {
		for _, r := range []int{3, 2} {
			for _, ft := range []bool{true, false} {
				name := "sharded/" + ph.name
				if !ft {
					name += "/no-ft"
				}
				if r != 3 {
					name += fmt.Sprintf("/R=%d", r)
				}
				t.Run(name, func(t *testing.T) {
					crashOneFollower(t, build, base, ref, ph.rule, ph.follower, r, ft)
				})
			}
		}
	}
}

// crashOneFollower is one row of TestCrashMidCollectiveNeverDeadlocks: an
// R-replica loopback run whose replica 1 link dies by rule, applied on
// the follower's end of the link when follower is set and on the
// leader's otherwise.
func crashOneFollower(t *testing.T, build func() pipemare.Task, base []pipemare.Option, ref *pipemare.Run, rule faults.Rule, follower bool, r int, ft bool) {
	baseline := runtime.NumGoroutine()
	var workerScript *faults.Script
	if follower {
		workerScript = faults.NewScript(rule)
	}
	dialers, _, wait := startFaultyWorkers(t, r-1, workerScript, build, func() []pipemare.Option { return base })
	if !follower {
		dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(rule)}
	}
	opts := append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(r), pipemare.WithTransport(dialers...))
	if ft {
		opts = append(opts, pipemare.WithFaultTolerance())
	}
	tr, err := pipemare.New(build(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var got *pipemare.Run
	err = runWithin(t, 60*time.Second, t.Name(), func() error {
		run, err := tr.Run(context.Background(), 2)
		got = run
		return err
	})
	switch {
	case ft && err != nil:
		t.Fatalf("fault-tolerant run aborted instead of evicting: %v", err)
	case ft && tr.Replicas() != r-1:
		t.Fatalf("run completed with %d replicas — the killed link was not evicted", tr.Replicas())
	case ft:
		requireIdentical(t, t.Name(), ref, got)
	case err == nil:
		t.Fatalf("run without fault tolerance completed with %d replicas; the dead follower's moments were unrecoverable", tr.Replicas())
	case !strings.Contains(err.Error(), "replica 1"):
		t.Fatalf("error %q does not name the failed replica", err)
	}
	tr.Close()
	wait() // the killed worker errors by design; the point is both exit
	// Every goroutine the run spawned must be gone; poll briefly
	// for the unwinding to settle.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after close, baseline %d — a goroutine leaked", n, baseline)
	}
}

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
// link dies during the restore's resync — on the first ring message after
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
		faults.Rule{Dir: faults.Send, Type: transport.MsgSetRing, Nth: p + 1, Op: faults.Kill})}
	_, err = pipemare.Restore(dir, build(), append(base, pipemare.WithTransport(dialers...))...)
	if err == nil || !strings.Contains(err.Error(), "replica 1") || strings.Contains(err.Error(), "no valid checkpoint") {
		t.Fatalf("restore with a follower dying mid-resync: %v; want an error naming replica 1, not an invalid checkpoint", err)
	}
	wait() // the killed worker errors by design
}

// TestHeartbeatEvictsHungPeer pins hung-peer detection: a worker that
// stops replying without its connection dying is invisible to I/O
// errors — only the liveness window catches it. With a 10ms heartbeat
// the leader declares the peer dead after 10 silent intervals, evicts
// it, and finishes training bit-identically to the reference.
func TestHeartbeatEvictsHungPeer(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 26) }
	base := ftBase()
	ref := runCurve(t, build, 2, 1, base...)
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	// Hang the leader's read of the worker's 3rd chunk reply: the reply
	// arrives but the link then blocks until the liveness window expires.
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 3, Op: faults.Hang})}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithFaultTolerance(),
		pipemare.WithHeartbeat(10*time.Millisecond),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	var got *pipemare.Run
	err = runWithin(t, 60*time.Second, "hung-peer", func() error {
		r, err := tr.Run(context.Background(), 2)
		got = r
		return err
	})
	if err != nil {
		t.Fatalf("hung peer was not evicted: %v", err)
	}
	if tr.Replicas() != 1 {
		t.Fatalf("%d replicas after the hang, want 1", tr.Replicas())
	}
	requireIdentical(t, "hung-peer", ref, got)
	tr.Close()
	wait() // the hung worker's serve loop ends in an error by design
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

// TestFaultToleranceOptionValidation pins the new options' error paths.
func TestFaultToleranceOptionValidation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 28) }
	if _, err := pipemare.New(build(), pipemare.WithCheckpoint("", 1)); err == nil ||
		!strings.Contains(err.Error(), "checkpoint directory") {
		t.Fatalf("empty checkpoint dir: err = %v", err)
	}
	if _, err := pipemare.New(build(), pipemare.WithCheckpoint(t.TempDir(), -1)); err == nil ||
		!strings.Contains(err.Error(), "cadence") {
		t.Fatalf("negative checkpoint cadence: err = %v", err)
	}
	if _, err := pipemare.New(build(), pipemare.WithHeartbeat(-time.Second)); err == nil ||
		!strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("negative heartbeat: err = %v", err)
	}
	if _, err := pipemare.Restore(t.TempDir(), build(), ftBase()...); err == nil ||
		!strings.Contains(err.Error(), "no checkpoints") {
		t.Fatalf("restore from empty dir: err = %v", err)
	}
}
