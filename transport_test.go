package pipemare_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/faults"
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
	return startFaultyWorkers(t, n, nil, build, opts)
}

// startFaultyWorkers is startWorkers whose first worker, when script is
// not nil, serves every connection through it: the follower's end of
// replica 1's link.
func startFaultyWorkers(t *testing.T, n int, script *faults.Script, build func() pipemare.Task, opts func() []pipemare.Option) (dialers []pipemare.Dialer, kill func(), wait func() []error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		lis, dial := pipemare.Loopback()
		if i == 0 && script != nil {
			lis = &faults.Listener{Inner: lis, Script: script}
		}
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

// TestMismatchedWorkerIsRefusedByName pins what replaced the initial-state
// checksum: a worker that cannot train the leader's state — one whose
// model has another architecture, here a wider hidden layer — is refused
// with an error naming what differs, the stage and tensor whose shape the
// handoff could not import. (A worker whose options name another recipe
// is no mismatch: it trains the leader's, TestWorkerTrainsTheLeadersRecipe.)
// At launch New fails, the worker ends with the same reason, and the
// matching worker admitted before it is released with a goodbye; as a
// joiner the worker is refused and the run goes on, on the Reference
// curve, at its replica count.
func TestMismatchedWorkerIsRefusedByName(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 16, Noise: 0.4, Seed: 3})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 6, 3, 5) }
	leader := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(4), pipemare.WithDType(pipemare.Float32),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSchedule(optim.Constant(0.05)))
	with := func(opts []pipemare.Option, extra ...pipemare.Option) []pipemare.Option {
		return append(append([]pipemare.Option{}, opts...), extra...)
	}
	ref := runCurve(t, build, 1, 1, leader...)
	for _, tc := range []struct {
		name, why string
		build     func() pipemare.Task
	}{
		{"architecture", "stage 0 tensor 0 shape [6 16], want [7 16]",
			func() pipemare.Task { return model.NewResNetMLP(images, 7, 3, 5) }},
	} {
		t.Run(tc.name+"/launch", func(t *testing.T) {
			good, _, goodWait := startWorkers(t, 1, build, func() []pipemare.Option { return leader })
			bad, _, badWait := startWorkers(t, 1, tc.build, func() []pipemare.Option { return leader })
			tr, err := pipemare.New(build(), with(leader, pipemare.WithTransport(good[0], bad[0]))...)
			if err == nil {
				tr.Close()
				t.Fatal("New admitted a mismatched worker")
			}
			if !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("New error %q does not say %q", err, tc.why)
			}
			if werr := badWait()[0]; werr == nil || !strings.Contains(werr.Error(), tc.why) {
				t.Fatalf("mismatched worker ended with %v, want its refusal %q", werr, tc.why)
			}
			if werr := goodWait()[0]; werr != nil {
				t.Fatalf("admitted worker ended with %v, want the failed leader's goodbye", werr)
			}
		})
		t.Run(tc.name+"/join", func(t *testing.T) {
			jlis, jwait := startJoiner(t, tc.build, leader)
			tr, err := pipemare.New(build(), with(leader, pipemare.WithReplicas(2), pipemare.WithElastic())...)
			if err != nil {
				t.Fatal(err)
			}
			acceptAndPark(t, tr, jlis)
			got, err := tr.Run(context.Background(), 1)
			if err != nil {
				t.Fatalf("the run did not go on past a refused joiner: %v", err)
			}
			if joins, _, _ := tr.ElasticStats(); joins != 0 || tr.Replicas() != 2 {
				t.Fatalf("%d joins, %d replicas after a refused joiner; want 0 and 2", joins, tr.Replicas())
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := jwait(); err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("joiner ended with %v, want its refusal %q", err, tc.why)
			}
			requireIdentical(t, tc.name+"/join", ref, got)
		})
	}
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
