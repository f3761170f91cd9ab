// Command pipemare-bench regenerates the tables and figures of the
// PipeMare paper's evaluation, smoke-tests distributed training end to
// end, and records traced epochs. Run with no arguments to list
// experiments, with experiment names to run them, or with "all" for
// everything. Performance is measured by `bash benchmark/run.sh`, not here.
//
//	pipemare-bench               # list experiments
//	pipemare-bench table1 fig3a  # run selected experiments (quick scale)
//	pipemare-bench -full table2  # reference-scale run
//	pipemare-bench all           # every experiment at quick scale
//	pipemare-bench -engine concurrent table2   # stage-scheduler engine
//	pipemare-bench -engine concurrent -workers 2 table2  # cap scheduler workers
//	pipemare-bench -partition cost table2      # cost-balanced stage split
//	pipemare-bench -replicas 2 table2          # 2 data-parallel replicas
//	pipemare-bench -dtype float32 table2       # train in float32
//	pipemare-bench -smoke -transport loopback  # R=2 over the wire protocol, one process
//	pipemare-bench -smoke -transport tcp -worker ./pipemare-worker  # leader + worker processes
//	pipemare-bench -smoke -transport tcp -worker ./pipemare-worker -crash-worker 3 [-join-worker]  # kill -9 [+ rejoin]
//	pipemare-bench -smoke -join-listen :9500   # train long enough to join by hand
//	pipemare-bench -trace out.json -engine concurrent -replicas 2  # record a traced epoch, report bubble fraction + MFU
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"pipemare"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/experiments"
	"pipemare/internal/tensor"
)

// config is the validated command line.
type config struct {
	full        bool
	inner       func() pipemare.Engine // -engine concurrent; nil for reference
	workers     int
	partition   pipemare.PartitionMode
	replicas    int
	transport   string
	workerBin   string
	smoke       bool
	traceOut    string
	dtype       pipemare.DType
	crashWorker int
	joinWorker  bool
	joinListen  string
	selected    []experiments.Experiment // none: list them
}

// parseFlags parses and cross-validates the command line; the flag
// package's own messages (unknown flag, -h) go to errOut.
func parseFlags(args []string, errOut io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("pipemare-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.BoolVar(&c.full, "full", false, "run at reference (paper) scale instead of quick scale")
	engineName := fs.String("engine", "reference", "execution engine for training runs: reference | concurrent")
	fs.IntVar(&c.workers, "workers", 0, "scheduler workers for the concurrent engine (0 = min(P, GOMAXPROCS))")
	partitionName := fs.String("partition", "even", "stage partition mode: even | cost | profile")
	fs.IntVar(&c.replicas, "replicas", 1, "data-parallel pipeline replicas per training run (curves are bit-identical to -replicas 1)")
	fs.StringVar(&c.transport, "transport", "inproc", "where replicated followers live for -smoke or -trace: inproc | loopback | tcp (tcp spawns pipemare-worker processes)")
	fs.StringVar(&c.workerBin, "worker", "pipemare-worker", "pipemare-worker binary for -transport tcp (resolved via PATH)")
	fs.BoolVar(&c.smoke, "smoke", false, "train the benchmark workload R=2 for one epoch over -transport and exit (CI distributed smoke test)")
	fs.StringVar(&c.traceOut, "trace", "", "record one traced training epoch, write Chrome trace-event JSON (Perfetto-loadable) to this file, and print the bubble-fraction/MFU report; honors -engine, -workers, -replicas and -transport")
	dtypeName := fs.String("dtype", "float64", "element type model state trains in: float64 | float32")
	fs.IntVar(&c.crashWorker, "crash-worker", 0, "with -smoke -transport tcp: spawn the worker with -crash-after N so it exit(137)s at its Nth chunk, and require the leader to evict it and finish (0 disables)")
	fs.BoolVar(&c.joinWorker, "join-worker", false, "with -smoke -transport tcp -crash-worker N: also spawn a replacement pipemare-worker -join; the killed replica must be evicted, the replacement admitted mid-epoch via the live handoff, and the final loss must match an uninterrupted in-process run")
	fs.StringVar(&c.joinListen, "join-listen", "", "with -smoke: accept mid-run joiners on this TCP address and train long enough to join by hand — run 'pipemare-worker -join <addr>' from another terminal while the smoke trains")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", c.workers)
	}
	switch c.transport {
	case "inproc", "loopback", "tcp":
	default:
		return nil, fmt.Errorf("unknown transport %q (want inproc, loopback or tcp)", c.transport)
	}
	dt, err := tensor.ParseDType(*dtypeName)
	if err != nil {
		return nil, err
	}
	c.dtype = dt
	switch *engineName {
	case "reference":
	case "concurrent":
		c.inner = func() pipemare.Engine { return concurrent.New(concurrent.WithWorkers(c.workers)) }
	default:
		return nil, fmt.Errorf("unknown engine %q (want reference or concurrent)", *engineName)
	}
	if c.workers > 0 && c.inner == nil {
		return nil, errors.New("-workers applies to -engine concurrent")
	}
	switch *partitionName {
	case "even":
	case "cost":
		c.partition = pipemare.PartitionCost
	case "profile":
		c.partition = pipemare.PartitionProfile
	default:
		return nil, fmt.Errorf("unknown partition mode %q (want even, cost or profile)", *partitionName)
	}
	// Every replica needs at least one microbatch per minibatch; the
	// smallest workload recipe runs N = 8 microbatches (batch 64,
	// microbatch size 8).
	if c.replicas < 1 || c.replicas > 8 {
		return nil, fmt.Errorf("-replicas must be in [1, 8], got %d", c.replicas)
	}
	if c.transport != "inproc" && !c.smoke && c.traceOut == "" {
		return nil, fmt.Errorf("-transport %s applies to -smoke or -trace", c.transport)
	}
	if c.crashWorker != 0 && (!c.smoke || c.transport != "tcp" || c.crashWorker < 0) {
		return nil, errors.New("-crash-worker takes a positive chunk ordinal and applies to -smoke -transport tcp")
	}
	if c.joinWorker && c.crashWorker == 0 {
		return nil, errors.New("-join-worker applies to -smoke -transport tcp with -crash-worker N")
	}
	if c.joinListen != "" && (!c.smoke || c.joinWorker) {
		return nil, errors.New("-join-listen applies to -smoke, without -join-worker")
	}
	if names := fs.Args(); len(names) == 1 && names[0] == "all" {
		c.selected = experiments.All()
	} else {
		for _, name := range names {
			e, ok := experiments.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (run without arguments to list)", name)
			}
			c.selected = append(c.selected, e)
		}
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipemare-bench: %v\n", err)
		os.Exit(2)
	}
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "pipemare-bench: %v\n", err)
		os.Exit(1)
	}
}

// run hands the experiments package the engine, partition, replica count
// and dtype every workload trains with, then does the one thing the
// command line asked for: the smoke, the traced epoch, or experiments.
func run(c *config) error {
	experiments.DType = c.dtype
	if c.smoke {
		if err := smokeRun(c.transport, c.workerBin, c.crashWorker, c.joinWorker, c.joinListen); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		return nil
	}
	experiments.Partition = c.partition
	experiments.EngineFactory = c.inner
	if c.replicas > 1 {
		// Replication wraps the chosen engine as the per-replica inner.
		experiments.Replicas = c.replicas
		experiments.EngineFactory = func() pipemare.Engine { return pipemare.NewReplicatedEngine(c.inner) }
	}
	if c.traceOut != "" {
		if err := traceRun(c.traceOut, c.inner, c.replicas, c.transport, c.workerBin); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}
	if len(c.selected) == 0 {
		fmt.Println("usage: pipemare-bench [-full] <experiment>... | all")
		fmt.Println("\navailable experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-11s %s\n", e.Name, e.Title)
		}
		return nil
	}
	scale := experiments.Quick
	if c.full {
		scale = experiments.Full
	}
	for i, e := range c.selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		start := time.Now()
		e.Run(os.Stdout, scale)
		fmt.Printf("--- %s done in %.1fs ---\n", e.Name, time.Since(start).Seconds())
	}
	return nil
}

// traceRun trains the benchmark workload (P=4) for one traced epoch —
// replicas > 1 wraps the chosen engine in the replicated engine — writes
// the recording as Chrome trace-event JSON to path, and prints the
// derived utilization report (per-stage busy time, bubble fraction, MFU)
// against the measured wall clock.
func traceRun(path string, inner func() pipemare.Engine, replicas int, transportName, workerBin string) error {
	const stages = 4
	dialers, release, err := startFollowers(transportName, workerBin, stages, replicas-1)
	if err != nil {
		return err
	}
	rec := pipemare.NewTraceRecorder()
	extra := []pipemare.Option{pipemare.WithTrace(rec)}
	if len(dialers) > 0 {
		extra = append(extra, pipemare.WithTransport(dialers...))
	}
	var eng pipemare.Engine
	switch {
	case replicas > 1 && inner != nil:
		eng = pipemare.NewReplicatedEngine(inner)
	case inner != nil:
		eng = inner()
	}
	tr, err := experiments.NewReplicatedBenchTrainer(stages, replicas, eng, extra...)
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := tr.Run(context.Background(), 1); err != nil {
		return err
	}
	wall := time.Since(start).Nanoseconds()
	costs := tr.StageCosts()
	if err := tr.Close(); err != nil {
		return err
	}
	if err := release(); err != nil {
		return fmt.Errorf("%s follower: %w", transportName, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipemare.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep := pipemare.BuildTraceReport(rec, costs)
	rep.Format(os.Stdout, wall)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// smokeRun trains the benchmark workload for one epoch with R=2 replicas
// over the chosen transport — the CI end-to-end check that a leader and a
// real worker process complete training together. It prints the final
// train loss so the log shows the run actually trained.
//
// crashWorker > 0 is the kill -9 smoke: the worker process hard-exits
// (status 137, no goodbye, no TCP FIN courtesy) upon receiving its
// crashWorker'th chunk request, and the run only passes if the leader
// detects the death, evicts the replica and finishes the epoch solo.
//
// joinWorker composes the crash smoke with elastic recovery: a
// replacement pipemare-worker -join process dials the leader's join
// listener and is admitted — no earlier than two steps past the crash,
// so the run demonstrably shrinks to R=1 first — via the live state
// handoff. The run passes only if the replacement is serving at exit
// (R=2 again) and the final loss bit-matches an uninterrupted
// in-process run: kill, eviction and rejoin cost zero curve deviation.
//
// joinListen is the interactive variant: the leader accepts joiners on
// the given TCP address and trains long enough (10 epochs) to run
// "pipemare-worker -join <addr>" by hand from another terminal; the
// exit line reports how many joined.
func smokeRun(transportName, workerBin string, crashWorker int, joinWorker bool, joinListen string) error {
	// The replacement joiner spawns first — it has a task to build and a
	// dial-with-backoff to win before it can park — and the run trains two
	// epochs (16 minibatch boundaries), so even a heavily loaded runner
	// admits it well before the run ends.
	epochs := 1
	var jlis pipemare.Listener
	joinDone := make(chan error, 1)
	joinAddr := joinListen
	if joinWorker {
		joinAddr = "127.0.0.1:0"
	}
	if joinAddr != "" {
		l, err := pipemare.ListenTCP(joinAddr)
		if err != nil {
			return err
		}
		jlis = l
	}
	switch {
	case joinWorker:
		epochs = 2
		cmd := exec.Command(workerBin, "-join", jlis.Addr(), "-join-at", fmt.Sprint(crashWorker+2),
			"-stages", "4", "-dtype", experiments.DType.String())
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning join worker: %w", err)
		}
		go func() { joinDone <- cmd.Wait(); close(joinDone) }()
		// On an early error return the joiner may still be dialling or
		// parked: kill and reap it. On success it has already exited.
		defer func() { cmd.Process.Kill(); <-joinDone }()
	case jlis != nil:
		epochs = 10
		fmt.Printf("accepting joiners on %s (pipemare-worker -join %s)\n", jlis.Addr(), jlis.Addr())
	}
	var workerArgs []string
	if crashWorker > 0 {
		workerArgs = append(workerArgs, "-crash-after", fmt.Sprint(crashWorker))
	}
	dialers, release, err := startFollowers(transportName, workerBin, 4, 1, workerArgs...)
	if err != nil {
		return err
	}
	var extra []pipemare.Option
	if len(dialers) > 0 {
		extra = append(extra, pipemare.WithTransport(dialers...))
	}
	if crashWorker > 0 {
		extra = append(extra, pipemare.WithShardedStep(false), pipemare.WithFaultTolerance())
	}
	if jlis != nil {
		extra = append(extra, pipemare.WithElastic())
	}
	tr, err := experiments.NewReplicatedBenchTrainer(4, 2, nil, extra...)
	if err != nil {
		return err
	}
	if jlis != nil {
		if err := tr.AcceptJoins(jlis); err != nil {
			return err
		}
	}
	run, err := tr.Run(context.Background(), epochs)
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	// A killed worker's exit(137) is the point of the crash smokes; any
	// other follower must have ended its session cleanly.
	if err := release(); err != nil && crashWorker == 0 {
		return fmt.Errorf("%s follower: %w", transportName, err)
	}
	if joinListen != "" {
		joins, demotions, handoffNs := tr.ElasticStats()
		fmt.Printf("smoke ok: R=%d at exit over %s (%d joined mid-run, %d demoted, handoff %.1fms), train loss %.6f\n",
			tr.Replicas(), transportName, joins, demotions, float64(handoffNs)/1e6, run.Loss[run.Epochs()-1])
		return nil
	}
	if joinWorker {
		if got := tr.Replicas(); got != 2 {
			return fmt.Errorf("replacement did not restore R=2: %d replicas at exit", got)
		}
		joins, _, _ := tr.ElasticStats()
		if joins != 1 {
			return fmt.Errorf("leader admitted %d joiners, want 1", joins)
		}
		if err := <-joinDone; err != nil {
			return fmt.Errorf("join worker: %w", err)
		}
		ref, err := experiments.NewReplicatedBenchTrainer(4, 2, nil,
			pipemare.WithShardedStep(false), pipemare.WithFaultTolerance())
		if err != nil {
			return err
		}
		refRun, err := ref.Run(context.Background(), epochs)
		if err != nil {
			return err
		}
		if err := ref.Close(); err != nil {
			return err
		}
		got, want := run.Loss[run.Epochs()-1], refRun.Loss[refRun.Epochs()-1]
		if got != want {
			return fmt.Errorf("elastic run loss %.17g != uninterrupted loss %.17g", got, want)
		}
		fmt.Printf("smoke ok: R=2 over %s, worker killed at chunk %d, evicted to R=1, replacement joined, loss matches uninterrupted run (%.6f)\n",
			transportName, crashWorker, got)
		return nil
	}
	if crashWorker > 0 {
		if got := tr.Replicas(); got != 1 {
			return fmt.Errorf("killed worker was not evicted: %d replicas survive, want 1", got)
		}
		fmt.Printf("smoke ok: R=2 over %s, worker killed at chunk %d, evicted to R=1, train loss %.6f\n",
			transportName, crashWorker, run.Loss[run.Epochs()-1])
		return nil
	}
	fmt.Printf("smoke ok: R=2 over %s, train loss %.6f\n", transportName, run.Loss[run.Epochs()-1])
	return nil
}

// startFollowers launches n follower endpoints for one run and returns
// the dialers for WithTransport plus a release function to call after
// Trainer.Close: it reaps the followers and returns the first session
// error. "inproc" returns no dialers — the trainer builds its followers
// in-process. workerArgs are passed through to each spawned tcp worker
// (e.g. -crash-after for the kill -9 smoke).
func startFollowers(transportName, workerBin string, stages, n int, workerArgs ...string) ([]pipemare.Dialer, func() error, error) {
	var dialers []pipemare.Dialer
	var waits []func() error // one per follower: how its session ended
	release := func() error {
		var first error
		for _, wait := range waits {
			if err := wait(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if transportName == "inproc" {
		n = 0
	}
	for i := 0; i < n; i++ {
		if transportName == "loopback" {
			lis, dial := pipemare.Loopback()
			done := make(chan error, 1)
			go func() {
				done <- pipemare.ServeFollower(context.Background(), lis,
					experiments.EngineBenchTask(), experiments.EngineBenchOptions(stages)...)
			}()
			waits = append(waits, func() error { return <-done })
			dialers = append(dialers, dial)
			continue
		}
		args := append([]string{"-addr", "127.0.0.1:0", "-stages", fmt.Sprint(stages), "-dtype", experiments.DType.String()}, workerArgs...)
		cmd := exec.Command(workerBin, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, nil, fmt.Errorf("spawning %s: %w", workerBin, err)
		}
		waits = append(waits, cmd.Wait)
		sc := bufio.NewScanner(stdout)
		addr := ""
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
				addr = a
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			release()
			return nil, nil, fmt.Errorf("%s exited without announcing its address", workerBin)
		}
		// Drain the remaining worker output in the background so the
		// child never blocks on a full pipe.
		go func() {
			for sc.Scan() {
			}
		}()
		dialers = append(dialers, pipemare.DialTCP(addr))
	}
	return dialers, release, nil
}
