package pipemare_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/model"
	"pipemare/internal/optim"
	"pipemare/internal/transport"
)

// startWorkers launches one ServeFollower goroutine per follower replica
// over loopback transports and returns the dialers for WithTransport, a
// cancel that kills the workers, and a wait that collects their exit
// errors (nil after a clean leader goodbye).
// opts is a factory so every worker owns its options — engine instances
// in particular must not be shared across worker goroutines.
func startWorkers(t *testing.T, n int, build func() pipemare.Task, opts func() []pipemare.Option) (dialers []pipemare.Dialer, kill func(), wait func() []error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		lis, dial := pipemare.Loopback()
		dialers = append(dialers, dial)
		wg.Add(1)
		go func(i int, lis pipemare.Listener) {
			defer wg.Done()
			errs[i] = pipemare.ServeFollower(ctx, lis, build(), opts()...)
		}(i, lis)
	}
	return dialers, cancel, func() []error {
		wg.Wait()
		cancel()
		return errs
	}
}

// transportGrid pins satellite coverage for the wire transport: for
// R ∈ {2, 4} replicas × both inner engines × both commit modes, a leader
// whose followers live behind the loopback wire — every collective
// crossing a serialization boundary — must train the all-techniques DNN
// bit-identically to a single-replica Reference run. The worker processes
// rebuild the follower from the same task constructor; the handshake
// checksum proves the builds matched.
func TestTransportLoopbackMatchesReference(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 96, Test: 32, Noise: 0.4, Seed: 6})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 10, 4, 8) }
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(4),
		pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8),
		pipemare.WithSchedule(optim.Constant(0.05)))
	ref := runCurve(t, build, 3, 1, base...)
	rs, inners := replicaGrid()
	for _, r := range rs {
		for _, inner := range inners {
			for _, sharded := range []bool{false, true} {
				name := fmt.Sprintf("loopback/R=%d/%s/sharded=%t", r, inner, sharded)
				workerOpts := func() []pipemare.Option {
					o := append([]pipemare.Option{}, base...)
					if inner == "concurrent" {
						o = append(o, pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(2))))
					}
					return o
				}
				dialers, kill, wait := startWorkers(t, r-1, build, workerOpts)
				leaderOpts := append(append([]pipemare.Option{}, base...),
					pipemare.WithReplicas(r), pipemare.WithShardedStep(sharded),
					pipemare.WithEngine(replicatedEngine(inner)),
					pipemare.WithTransport(dialers...))
				tr, err := pipemare.New(build(), leaderOpts...)
				if err != nil {
					kill()
					t.Fatalf("%s: %v", name, err)
				}
				if tr.Replicas() != r {
					t.Fatalf("%s: trainer owns %d replicas, want %d", name, tr.Replicas(), r)
				}
				got, err := tr.Run(context.Background(), 3)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := tr.Close(); err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
				for i, werr := range wait() {
					if werr != nil {
						t.Fatalf("%s: worker %d: %v", name, i+1, werr)
					}
				}
				requireIdentical(t, name, ref, got)
			}
		}
	}
}

// TestTransportDivergencePassesThrough pins the errDiverged wire path: a
// divergence inside a remote worker's chunk must surface as the normal
// divergence outcome — the leader records the Reference divergence curve
// exactly, the worker session stays healthy, and shutdown is clean.
func TestTransportDivergencePassesThrough(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 7) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(2), pipemare.WithLossCap(10),
		pipemare.WithSchedule(optim.Constant(5)), // absurd rate: diverges
	}
	ref := runCurve(t, build, 4, 1, base...)
	if !ref.Diverged {
		t.Fatal("reference run was expected to diverge")
	}
	dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	defer kill()
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}
	requireIdentical(t, "transport-divergence", ref, got)
}

// TestTransportWorkerDeathSurfacesCleanly pins satellite error surfacing
// end to end: killing a worker between epochs makes Trainer.Run return a
// wrapped transport error naming the replica — no hang, no panic — and
// the trainer still closes.
func TestTransportWorkerDeathSurfacesCleanly(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(3),
		pipemare.WithSchedule(optim.Constant(0.05)),
	}
	dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	var once sync.Once
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithTransport(dialers...),
		pipemare.WithObserver(func(epochs int, run *pipemare.Run) {
			// The worker dies after the first epoch, mid-run.
			once.Do(kill)
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Run(context.Background(), 50)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run succeeded although its worker died mid-run")
		}
		if !strings.Contains(err.Error(), "replica 1") {
			t.Fatalf("Run error %q does not name the failed replica", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after its worker died")
	}
	wait()
	tr.Close()
}

// failDialer is a worker endpoint nothing listens on.
type failDialer struct{}

func (failDialer) Dial(context.Context) (transport.MsgConn, error) {
	return nil, errors.New("no worker here")
}

// TestTransportFailedBuildReleasesConnectedFollowers pins what a leader
// that cannot be built owes the workers it already reached: with two
// followers of which the second cannot be dialled, New fails — and says
// goodbye to the first, whose ServeFollower returns nil promptly instead
// of sitting in Recv until the leader process dies.
func TestTransportFailedBuildReleasesConnectedFollowers(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	base := []pipemare.Option{
		pipemare.WithMethod(pipemare.PipeMare),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
		pipemare.WithSeed(3),
		pipemare.WithSchedule(optim.Constant(0.05)),
	}
	dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	defer kill()
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, base...),
		pipemare.WithTransport(dialers[0], failDialer{}))...)
	if err == nil {
		tr.Close()
		t.Fatal("New succeeded although replica 2 could not be dialled")
	}
	if !strings.Contains(err.Error(), "replica 2") {
		t.Fatalf("New error %q does not name the unreachable replica", err)
	}
	served := make(chan []error, 1)
	go func() { served <- wait() }()
	select {
	case errs := <-served:
		if errs[0] != nil {
			t.Fatalf("worker 1 ended with %v, want a clean goodbye", errs[0])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker 1 still serving a leader that was never built")
	}
}

// TestWithTransportValidation pins the option's error paths.
func TestWithTransportValidation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 9) }
	_, dial := pipemare.Loopback()
	// Dialer count must be exactly R-1.
	if _, err := pipemare.New(build(),
		pipemare.WithReplicas(3), pipemare.WithTransport(dial),
		pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4)); err == nil ||
		!strings.Contains(err.Error(), "exactly R-1") {
		t.Fatalf("mismatched dialer count: err = %v", err)
	}
	if err := func() error {
		_, err := pipemare.New(build(), pipemare.WithTransport())
		return err
	}(); err == nil || !strings.Contains(err.Error(), "at least one dialer") {
		t.Fatalf("empty WithTransport: err = %v", err)
	}
	// A follower must not itself dial followers.
	lis, _ := pipemare.Loopback()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := pipemare.ServeFollower(ctx, lis, build(), pipemare.WithTransport(dial)); err == nil ||
		!strings.Contains(err.Error(), "leader option") {
		t.Fatalf("ServeFollower with WithTransport: err = %v", err)
	}
}
