package pipemare_test

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/faults"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// churnInputs are the two inputs the R=3 membership-churn cases run over:
// the faulted link is the tail follower's, or — traced — the follower at
// position 1, so the survivor above it shifts down a position and the
// member admitted next takes the position the survivor held at the
// start. Tracing is what tells the members apart afterwards: each has
// single-writer tracks of its own, so a newcomer mistaken for the
// survivor is two goroutines appending to one track.
var churnInputs = []struct {
	name   string
	link   int // index into the follower dialers: replica link+1
	traced bool
}{{"tail", 1, false}, {"non-tail-traced", 0, true}}

// requireOwnTracks asserts that a traced run gave each of the follower
// members pids its own timelines: a wire track and a collectives track
// that carry events, and no collectives track holding more commit steps
// than the run had optimizer steps — every member's track records exactly
// one per step it is active for, so more means two members wrote one
// track.
func requireOwnTracks(t *testing.T, name string, rec *pipemare.TraceRecorder, steps int, pids ...int) {
	t.Helper()
	seen := map[[2]int]bool{}
	for _, tk := range rec.Tracks() {
		seen[[2]int{tk.Pid, tk.Tid}] = len(tk.Events()) > 0
		commits := 0
		for _, ev := range tk.Events() {
			if ev.Name == trace.NameCommitStep && tk.Tid == trace.TidCollectives {
				commits++
			}
		}
		if commits > steps {
			t.Fatalf("%s: replica %d's collectives track holds %d commit steps in a %d-step run: two members share it", name, tk.Pid, commits, steps)
		}
	}
	for _, pid := range pids {
		if !seen[[2]int{pid, trace.TidCollectives}] || !seen[[2]int{pid, trace.TidWire}] {
			t.Fatalf("%s: replica %d has no collectives or wire events of its own", name, pid)
		}
	}
}

// startJoiner runs pipemare.JoinFollower in a goroutine over a fresh
// loopback pair and returns the join listener (hand it to
// Trainer.AcceptJoins) plus a wait for the joiner's exit error. The
// joiner rebuilds the task from the same constructor; no initial-state
// agreement is needed — the live handoff replaces every tensor.
func startJoiner(t *testing.T, build func() pipemare.Task, opts []pipemare.Option) (pipemare.Listener, func() error) {
	t.Helper()
	lis, dial := pipemare.Loopback()
	done := make(chan error, 1)
	go func() {
		done <- pipemare.JoinFollower(context.Background(), dial, build(), opts...)
	}()
	return lis, func() error { return <-done }
}

// parkSignal wraps a join listener to tell a test when the trainer has
// parked a joiner: each accepted connection hands the test, when the
// trainer reads its join request, the request's read context, which the
// trainer ends only once the joiner is parked (Trainer.park).
type parkSignal struct {
	pipemare.Listener
	read chan (<-chan struct{}) // buffered; the read context's Done of a join request
}

func (l parkSignal) Accept(ctx context.Context) (transport.MsgConn, error) {
	conn, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return joinReadSignal{conn, l.read}, nil
}

// joinReadSignal is an accepted joiner connection that hands over the
// read context of its join request.
type joinReadSignal struct {
	transport.MsgConn
	read chan (<-chan struct{})
}

func (c joinReadSignal) Recv(ctx context.Context) (transport.Msg, error) {
	m, err := c.MsgConn.Recv(ctx)
	if err == nil && m.Type == transport.MsgJoin {
		select {
		case c.read <- ctx.Done():
		default:
		}
	}
	return m, err
}

// acceptAndPark hands lis to the trainer's AcceptJoins and returns once
// the joiner dialing it is parked, so a following Run admits (or rejects)
// it at the boundary its JoinAt names on any scheduler — not at whichever
// boundary the joiner's goroutine happened to reach the leader by.
func acceptAndPark(t *testing.T, tr *pipemare.Trainer, lis pipemare.Listener) {
	t.Helper()
	read := make(chan (<-chan struct{}), 1)
	if err := tr.AcceptJoins(parkSignal{lis, read}); err != nil {
		t.Fatalf("accept joins: %v", err)
	}
	parked := <-read
	<-parked
}

// TestJoinMatchesFreshLargerRun is the headline elastic-membership pin:
// a third replica joining an R=2 loopback run at
// step 2 — weights, T2 state, optimizer moments, version rings and
// clocks arriving by live handoff, the reduce tree and commit plan
// rebuilt over R=3 — must leave the curve bit-identical to the
// single-replica reference. The determinism invariant makes the
// post-join group indistinguishable from a run that always had three
// replicas, and that in turn from R=1; one reference pins both halves.
func TestJoinMatchesFreshLargerRun(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 29) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	jlis, jwait := startJoiner(t, build,
		append(append([]pipemare.Option{}, base...), pipemare.WithJoinAt(2)))
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithElastic(),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	acceptAndPark(t, tr, jlis)
	got, err := tr.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != 3 {
		t.Fatalf("%d replicas after the join, want 3", tr.Replicas())
	}
	if joins, demotions, handoffNs := tr.ElasticStats(); joins != 1 || demotions != 0 || handoffNs <= 0 {
		t.Fatalf("elastic stats (%d joins, %d demotions, %dns handoff), want 1 join, 0 demotions, positive handoff time",
			joins, demotions, handoffNs)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := jwait(); err != nil {
		t.Fatalf("joiner: %v", err)
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}
	requireIdentical(t, "join", ref, got)
}

// TestStragglerDemoteRejoinZeroDeviation pins the degraded reduce: a
// follower whose chunk reply stalls 100ms against a 20ms straggler
// deadline (2 misses) is demoted to standby mid-minibatch, the
// minibatch replays over the survivors, and — once the late reply
// drains — the standby rejoins through the same handoff path at a later
// boundary. Demotion and rejoin must both leave the curve bit-identical
// to the single-replica reference.
func TestStragglerDemoteRejoinZeroDeviation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 30) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)
	for _, in := range churnInputs {
		name := "demote-rejoin/" + in.name
		dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
		// Stall the leader's read of the follower's very first chunk reply:
		// the reply exists — the worker is healthy, just slow — so after the
		// demotion the drain recovers it and the member turns ready standby.
		dialers[in.link] = &faults.Dialer{Inner: dialers[in.link], Script: faults.NewScript(
			faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 1,
				Op: faults.Delay, Delay: 100 * time.Millisecond})}
		opts := append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(3),
			pipemare.WithFaultTolerance(), pipemare.WithElastic(),
			pipemare.WithStragglerDemotion(20*time.Millisecond, 2),
			pipemare.WithTransport(dialers...),
			pipemare.WithObserver(func(epochs int, run *pipemare.Run) {
				if epochs == 1 {
					// Give the demoted member's 100ms drain time to finish, so
					// the rejoin lands at an epoch-2 boundary.
					time.Sleep(400 * time.Millisecond)
				}
			}))
		var rec *pipemare.TraceRecorder
		if in.traced {
			rec = pipemare.NewTraceRecorder()
			opts = append(opts, pipemare.WithTrace(rec))
		}
		tr, err := pipemare.New(build(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var got *pipemare.Run
		err = runWithin(t, 60*time.Second, name, func() error {
			r, err := tr.Run(context.Background(), 4)
			got = r
			return err
		})
		if err != nil {
			t.Fatalf("%s: straggler demotion did not keep the run alive: %v", name, err)
		}
		joins, demotions, handoffNs := tr.ElasticStats()
		if demotions != 1 || joins != 1 || handoffNs <= 0 {
			t.Fatalf("%s: elastic stats (%d joins, %d demotions, %dns handoff), want the demoted member back via 1 rejoin",
				name, joins, demotions, handoffNs)
		}
		if tr.Replicas() != 3 {
			t.Fatalf("%s: %d replicas after demote+rejoin, want 3", name, tr.Replicas())
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		for i, werr := range wait() {
			if werr != nil {
				t.Fatalf("%s: worker %d: %v", name, i+1, werr)
			}
		}
		requireIdentical(t, name, ref, got)
		if in.traced {
			requireOwnTracks(t, name, rec, 16, 1, 2)
		}
	}
}

// TestChurnCompositions pins membership changes composing with each
// other and with the rest of the robustness surface, all against the
// single-replica reference curve.
func TestChurnCompositions(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 31) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)

	// A fatal fault evicting a follower at its 2nd chunk while a joiner is
	// already parked for step 8: the reduce tree shrinks to R=2, then
	// grows back to R=3 when the parked joiner is admitted — as a fourth
	// member, whatever position it takes.
	for _, in := range churnInputs {
		t.Run("evict-during-pending-join/"+in.name, func(t *testing.T) {
			dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
			dialers[in.link] = &faults.Dialer{Inner: dialers[in.link], Script: faults.NewScript(
				faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 2, Op: faults.Kill})}
			jlis, jwait := startJoiner(t, build,
				append(append([]pipemare.Option{}, base...), pipemare.WithJoinAt(8)))
			opts := append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(3),
				pipemare.WithFaultTolerance(), pipemare.WithElastic(),
				pipemare.WithTransport(dialers...))
			var rec *pipemare.TraceRecorder
			if in.traced {
				rec = pipemare.NewTraceRecorder()
				opts = append(opts, pipemare.WithTrace(rec))
			}
			tr, err := pipemare.New(build(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			acceptAndPark(t, tr, jlis)
			var got *pipemare.Run
			err = runWithin(t, 60*time.Second, "evict+join", func() error {
				r, err := tr.Run(context.Background(), 4)
				got = r
				return err
			})
			if err != nil {
				t.Fatalf("run did not survive eviction with a parked joiner: %v", err)
			}
			if tr.Replicas() != 3 {
				t.Fatalf("%d replicas after evict+join, want 3 (one out, one in)", tr.Replicas())
			}
			if joins, _, _ := tr.ElasticStats(); joins != 1 {
				t.Fatalf("%d joins, want 1", joins)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := jwait(); err != nil {
				t.Fatalf("joiner: %v", err)
			}
			errs := wait()
			if errs[1-in.link] != nil {
				t.Fatalf("surviving worker: %v", errs[1-in.link])
			}
			if errs[in.link] == nil {
				t.Fatal("killed worker's serve loop ended without error")
			}
			requireIdentical(t, "evict-during-pending-join", ref, got)
			if in.traced {
				// The survivor keeps id 2; the joiner is member 3, not a
				// second replica 2.
				requireOwnTracks(t, "evict-during-pending-join", rec, 16, 2, 3)
			}
		})
	}

	// A join admitted at a boundary that also writes a checkpoint every
	// step: admission runs strictly after the write, and both keep the
	// curve on the reference.
	t.Run("join-during-checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
		jlis, jwait := startJoiner(t, build,
			append(append([]pipemare.Option{}, base...), pipemare.WithJoinAt(2)))
		tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(2),
			pipemare.WithElastic(), pipemare.WithCheckpoint(dir, 1),
			pipemare.WithTransport(dialers...))...)
		if err != nil {
			t.Fatal(err)
		}
		acceptAndPark(t, tr, jlis)
		got, err := tr.Run(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Replicas() != 3 {
			t.Fatalf("%d replicas after the join, want 3", tr.Replicas())
		}
		if writes, _ := tr.CheckpointStats(); writes != 16 {
			t.Fatalf("%d checkpoint writes, want 16 (every step)", writes)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := jwait(); err != nil {
			t.Fatalf("joiner: %v", err)
		}
		for i, werr := range wait() {
			if werr != nil {
				t.Fatalf("worker %d: %v", i+1, werr)
			}
		}
		requireIdentical(t, "join-during-checkpoint", ref, got)
		// The post-join checkpoints are loadable: restoring the newest into
		// a fresh trainer lands on the final step.
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pm"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no checkpoints on disk (%v)", err)
		}
		tr2, err := pipemare.New(build(), base...)
		if err != nil {
			t.Fatal(err)
		}
		if step, err := tr2.RestoreLatest(dir); err != nil || step != 16 {
			t.Fatalf("restore of a post-join checkpoint: step %d, err %v, want 16, nil", step, err)
		}
	})

	// A member demoted for straggling, rejoined, then fatally killed on
	// its first post-rejoin reply: demotion, handoff and eviction chain
	// on one link without deadlock or curve deviation.
	t.Run("demotion-racing-fatal", func(t *testing.T) {
		dialers, _, wait := startWorkers(t, 2, build, func() []pipemare.Option { return base })
		dialers[1] = &faults.Dialer{Inner: dialers[1], Script: faults.NewScript(
			faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 1,
				Op: faults.Delay, Delay: 100 * time.Millisecond},
			faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 2, Op: faults.Kill})}
		tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
			pipemare.WithReplicas(3),
			pipemare.WithFaultTolerance(), pipemare.WithElastic(),
			pipemare.WithStragglerDemotion(20*time.Millisecond, 2),
			pipemare.WithTransport(dialers...),
			pipemare.WithObserver(func(epochs int, run *pipemare.Run) {
				if epochs == 1 {
					time.Sleep(400 * time.Millisecond)
				}
			}))...)
		if err != nil {
			t.Fatal(err)
		}
		var got *pipemare.Run
		err = runWithin(t, 60*time.Second, "demote+kill", func() error {
			r, err := tr.Run(context.Background(), 4)
			got = r
			return err
		})
		if err != nil {
			t.Fatalf("run did not survive the demote→rejoin→kill chain: %v", err)
		}
		if tr.Replicas() != 2 {
			t.Fatalf("%d replicas at the end, want 2 (rejoined member evicted)", tr.Replicas())
		}
		joins, demotions, _ := tr.ElasticStats()
		if demotions != 1 || joins != 1 {
			t.Fatalf("elastic stats (%d joins, %d demotions), want 1 and 1", joins, demotions)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		errs := wait()
		if errs[0] != nil {
			t.Fatalf("surviving worker: %v", errs[0])
		}
		if errs[1] == nil {
			t.Fatal("killed worker's serve loop ended without error")
		}
		requireIdentical(t, "demotion-racing-fatal", ref, got)
	})
}

// TestChunkZeroHolderChurn moves chunk 0 — the chunk whose member
// accumulates in place and ships one prefix — from member to member at
// R = 3 over loopback, on both inner engines. Follower A (position 1)
// holds it first and straggles on its first reply: it is demoted, the
// minibatch replays with follower B holding chunk 0, and A's late chunk-0
// reply drains. A rejoins at the tail (chunk 1) at an epoch-2 boundary;
// then B, holding chunk 0 again, is killed as the leader reads its reply,
// and the replay over the survivors hands chunk 0 back to A. Every edge
// must keep the curve on the single-replica reference — which holds only
// if A's late chunk-0 run left its accumulators zeroed before it rejoined.
func TestChunkZeroHolderChurn(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 32) }
	base := ftBase()
	ref := runCurve(t, build, 4, 1, base...)
	for _, inner := range []string{"reference", "concurrent"} {
		t.Run(inner, func(t *testing.T) {
			workerOpts := func() []pipemare.Option {
				o := append([]pipemare.Option{}, base...)
				if inner == "concurrent" {
					o = append(o, pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(2))))
				}
				return o
			}
			dialers, _, wait := startWorkers(t, 2, build, workerOpts)
			dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
				faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 1,
					Op: faults.Delay, Delay: 100 * time.Millisecond})}
			// B's chunks: minibatch 1 and its replay, minibatches 2–4, then
			// epoch 2's first (A rejoins after it) and second; its 8th is
			// epoch 2's third, back on chunk 0 behind the leader.
			dialers[1] = &faults.Dialer{Inner: dialers[1], Script: faults.NewScript(
				faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 8, Op: faults.Kill})}
			eng := pipemare.NewReferenceEngine()
			if inner == "concurrent" {
				eng = concurrent.New()
			}
			tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
				pipemare.WithReplicas(3), pipemare.WithEngine(eng),
				pipemare.WithFaultTolerance(), pipemare.WithElastic(),
				pipemare.WithStragglerDemotion(20*time.Millisecond, 2),
				pipemare.WithTransport(dialers...),
				pipemare.WithObserver(func(epochs int, run *pipemare.Run) {
					if epochs == 1 {
						time.Sleep(400 * time.Millisecond) // A's drain ends in here
					}
				}))...)
			if err != nil {
				t.Fatal(err)
			}
			var got *pipemare.Run
			err = runWithin(t, 60*time.Second, "chunk-0 churn", func() error {
				r, err := tr.Run(context.Background(), 4)
				got = r
				return err
			})
			if err != nil {
				t.Fatalf("run did not survive the chunk-0 holder's churn: %v", err)
			}
			joins, demotions, _ := tr.ElasticStats()
			if demotions != 1 || joins != 1 || tr.Replicas() != 2 {
				t.Fatalf("%d demotions, %d joins, %d replicas at the end; want 1, 1 and 2 (B evicted)", demotions, joins, tr.Replicas())
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			errs := wait()
			if errs[0] != nil {
				t.Fatalf("worker A: %v", errs[0])
			}
			if errs[1] == nil {
				t.Fatal("killed worker B's serve loop ended without error")
			}
			requireIdentical(t, "chunk-0 churn", ref, got)
		})
	}
}

// TestJoinRejectsMismatchedShape pins the join's guard rails: a joiner
// whose model has another architecture — three weight groups, where the
// leader's stage map covers four — refuses the leader's hello at its first
// admission boundary and exits with its reason — the run itself never
// notices — and a joiner parked past the end of training is released with
// an error when the leader closes.
func TestJoinRejectsMismatchedShape(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 32) }
	base := ftBase()
	ref := runCurve(t, build, 2, 1, base...)
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	badLis, badWait := startJoiner(t, func() pipemare.Task { return newQuadTask(3, 32, 8, 32) }, base)
	lateLis, lateWait := startJoiner(t, build,
		append(append([]pipemare.Option{}, base...), pipemare.WithJoinAt(1000)))
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2),
		pipemare.WithElastic(),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	for _, lis := range []pipemare.Listener{badLis, lateLis} {
		acceptAndPark(t, tr, lis)
	}
	got, err := tr.Run(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != 2 {
		t.Fatalf("%d replicas after rejected joins, want 2", tr.Replicas())
	}
	if joins, _, _ := tr.ElasticStats(); joins != 0 {
		t.Fatalf("%d joins, want 0", joins)
	}
	if err := badWait(); err == nil || !strings.Contains(err.Error(), "a stage map of 4 groups for 3 weight groups") {
		t.Fatalf("mismatched joiner: err = %v, want its refusal naming both group counts", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lateWait(); err == nil {
		t.Fatal("never-admitted joiner returned nil after the leader closed")
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}
	requireIdentical(t, "rejected-joins", ref, got)
}

// TestSilentDialerStallsNoJoiner pins the accept path against a dialer
// that never sends its join request: a joiner dialling after it is still
// read, parked and admitted, and once the trainer closes, every goroutine
// the accept path started — the silent connection's reader included — is
// gone.
func TestSilentDialerStallsNoJoiner(t *testing.T) {
	baseline := runtime.NumGoroutine()
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 36) }
	base := ftBase()
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	lis, dial := pipemare.Loopback()
	read := make(chan (<-chan struct{}), 1)
	if err := tr.AcceptJoins(parkSignal{lis, read}); err != nil {
		t.Fatal(err)
	}
	silent, err := dial.Dial(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	joined := make(chan error, 1)
	go func() {
		joined <- pipemare.JoinFollower(context.Background(), dial, build(),
			append(append([]pipemare.Option{}, base...), pipemare.WithDialTimeout(5*time.Second))...)
	}()
	select {
	case parked := <-read:
		<-parked
	case <-time.After(10 * time.Second):
		t.Fatal("a silent dialer kept the joiner behind it from being read")
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if joins, _, _ := tr.ElasticStats(); joins != 1 || tr.Replicas() != 3 {
		t.Fatalf("%d joins, %d replicas; want the joiner admitted (1 join, 3 replicas)", joins, tr.Replicas())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	silent.Close()
	lis.Close()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after close, baseline %d — the accept path leaked one", n, baseline)
	}
}

// TestCloseDuringCollectiveUnwinds extends the Close contract to a
// trainer caught mid-collective: with the leader's chunk request to its
// worker stalled on the wire, Close severs the connection without
// waiting for the stuck round trip to come home, the in-flight Run
// unwinds with an error (without fault tolerance the severed member is
// not evictable, so the run cannot quietly finish solo), the second
// Close is a nil no-op, and no goroutine — serve loop, heartbeat
// pinger — leaks.
func TestCloseDuringCollectiveUnwinds(t *testing.T) {
	baseline := runtime.NumGoroutine()
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 33) }
	base := ftBase()
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	dialers[0] = &faults.Dialer{Inner: dialers[0], Script: faults.NewScript(
		faults.Rule{Dir: faults.Send, Type: transport.MsgRunChunk, Nth: 2,
			Op: faults.Delay, Delay: 400 * time.Millisecond})}
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithHeartbeat(20*time.Millisecond),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Run(context.Background(), 4)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the run reach the stalled send
	if err := tr.Close(); err != nil {
		t.Fatalf("close mid-collective: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run survived its trainer closing mid-collective")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after Close severed its member")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	wait() // the severed worker's serve loop may error; the point is it exits
	// Every goroutine the trainer spawned — serve loop, pinger, straggler
	// drain — must be gone; poll briefly for the unwinding to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+1 {
		t.Fatalf("%d goroutines after close, baseline %d — a watcher leaked", n, baseline)
	}
}

// TestCloseDuringAcceptJoinsReleasesEveryJoiner races Close against the
// accept loops it has to unwind: joiners dial a join listener in a loop
// while the trainer closes — and a second AcceptJoins is issued beside the
// Close — and every joiner must come back (its parked or just-accepted
// connection was closed, or the listener refused the dial), with no race
// between Close's write of the closed flag and the accept paths' reads.
func TestCloseDuringAcceptJoinsReleasesEveryJoiner(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 35) }
	base := ftBase()
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithReplicas(2), pipemare.WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	lis, dial := pipemare.Loopback()
	if err := tr.AcceptJoins(lis); err != nil {
		t.Fatal(err)
	}
	var joiners sync.WaitGroup
	for j := 0; j < 3; j++ {
		joiners.Add(1)
		go func() {
			defer joiners.Done()
			for {
				// A joiner the leader parked blocks here until the leader
				// closes its connection; one the closed listener refuses
				// ends the loop.
				err := pipemare.JoinFollower(context.Background(), dial, build(),
					append(append([]pipemare.Option{}, base...), pipemare.WithDialTimeout(5*time.Second))...)
				if err == nil || strings.Contains(err.Error(), "loopback closed") {
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let some joiners park
	late, _ := pipemare.Loopback()
	accepted := make(chan error, 1)
	go func() { accepted <- tr.AcceptJoins(late) }()
	if err := tr.Close(); err != nil {
		t.Fatalf("close beside the accept loops: %v", err)
	}
	if err := <-accepted; err != nil && !strings.Contains(err.Error(), "closed trainer") {
		t.Fatalf("AcceptJoins beside Close: %v", err)
	}
	late.Close() // a listener Close never saw (AcceptJoins lost the race) is the caller's
	released := make(chan struct{})
	go func() { joiners.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(20 * time.Second):
		t.Fatal("a joiner is still parked on a connection the closed trainer left open")
	}
	if err := tr.AcceptJoins(lis); err == nil {
		t.Fatal("AcceptJoins on a closed trainer succeeded")
	}
}

// TestElasticOptionValidation pins the new options' error paths.
func TestElasticOptionValidation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 34) }
	if _, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithElastic())...); err == nil ||
		!strings.Contains(err.Error(), "elastic") {
		t.Fatalf("elastic with R=1: err = %v", err)
	}
	if _, err := pipemare.New(build(),
		pipemare.WithStragglerDemotion(0, 2)); err == nil ||
		!strings.Contains(err.Error(), "straggler") {
		t.Fatalf("demote policy without a deadline: err = %v", err)
	}
	if _, err := pipemare.New(build(),
		pipemare.WithStragglerDemotion(time.Second, 0)); err == nil ||
		!strings.Contains(err.Error(), "straggler") {
		t.Fatalf("demote policy without a miss budget: err = %v", err)
	}
	if _, err := pipemare.New(build(), pipemare.WithJoinAt(-1)); err == nil ||
		!strings.Contains(err.Error(), "join") {
		t.Fatalf("negative join step: err = %v", err)
	}
	// The wait policy is the default and composes with everything.
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithStragglerDemotion(0, 0))...)
	if err != nil {
		t.Fatalf("wait policy: %v", err)
	}
	tr.Close()
	// AcceptJoins needs the elastic option, and refuses a closed trainer.
	lis, _ := pipemare.Loopback()
	tr2, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithReplicas(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.AcceptJoins(lis); err == nil || !strings.Contains(err.Error(), "elastic") {
		t.Fatalf("AcceptJoins without WithElastic: err = %v", err)
	}
	tr2.Close()
	tr3, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithReplicas(2), pipemare.WithElastic())...)
	if err != nil {
		t.Fatal(err)
	}
	tr3.Close()
	if err := tr3.AcceptJoins(lis); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("AcceptJoins after Close: err = %v", err)
	}
}
