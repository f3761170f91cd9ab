package pipemare_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/faults"
	"pipemare/internal/leakcheck"
	"pipemare/internal/transport"
)

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

// TestChurnCompositions runs quad-ft's churn cells: membership changes
// composing with each other, with checkpoint writes and with a fatal
// fault, on the Reference curve.
func TestChurnCompositions(t *testing.T) { runFTTest(t) }

// TestChunkZeroHolderChurn runs quad-ft's chunk-0 cells: chunk 0 moves
// from member to member through a demotion, a rejoin and an eviction, on
// both inner engines.
func TestChunkZeroHolderChurn(t *testing.T) { runFTTest(t) }

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
	if n := leakcheck.Settled(baseline, 10*time.Second); n > baseline {
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
	// drain — must be gone.
	if n := leakcheck.Settled(baseline, 10*time.Second); n > baseline {
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

// TestElasticOptionValidation pins the elastic options' checks that
// need more than one option, and AcceptJoins'; the single-option rows
// are in TestOptionValidationErrors.
func TestElasticOptionValidation(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 32, 8, 34) }
	if _, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithElastic())...); err == nil ||
		!strings.Contains(err.Error(), "elastic") {
		t.Fatalf("elastic with R=1: err = %v", err)
	}
	// The wait policy is the default and composes with everything.
	tr, err := pipemare.New(build(), append(append([]pipemare.Option{}, ftBase()...),
		pipemare.WithStragglerDemotion(0))...)
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
