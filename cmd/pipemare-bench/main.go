// Command pipemare-bench regenerates the tables and figures of the
// PipeMare paper's evaluation, smoke-tests distributed training end to
// end, and records traced epochs. Run with no arguments to list
// experiments, with experiment names to run them, or with "all" for
// everything. The regenerators are this command's own files (analytic.go,
// dnn.go, hogwild.go), built on the training recipes of
// internal/experiments; it is the only program that links the
// paper-analysis packages. Performance is measured by
// `bash benchmark/run.sh`, not here.
//
//	pipemare-bench               # list experiments
//	pipemare-bench table1 fig3a  # run selected experiments (quick scale)
//	pipemare-bench -full table2  # reference-scale run
//	pipemare-bench all           # every experiment at quick scale
//	pipemare-bench -engine concurrent table2   # segment-scheduler engine
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
	"slices"
	"strconv"
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
	engine      pipemare.Engine // -engine concurrent; nil for reference
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
	selected    []experiment // none: list them
}

// flagModes lists, for each flag that not every mode reads, the modes
// that do: experiment runs, -smoke and -trace. Setting one of these flags
// for a mode that would ignore it is an error.
var flagModes = map[string][]string{
	"full":         {"experiments"},
	"partition":    {"experiments"},
	"replicas":     {"experiments", "-trace"},
	"trace":        {"-trace"},
	"transport":    {"-smoke", "-trace"},
	"worker":       {"-smoke", "-trace"},
	"crash-worker": {"-smoke"},
	"join-worker":  {"-smoke"},
	"join-listen":  {"-smoke"},
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
		c.engine = concurrent.New(c.workers)
	default:
		return nil, fmt.Errorf("unknown engine %q (want reference or concurrent)", *engineName)
	}
	if c.workers > 0 && c.engine == nil {
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
	mode := "experiments"
	switch {
	case c.smoke:
		mode = "-smoke"
	case c.traceOut != "":
		mode = "-trace"
	}
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := flagModes[f.Name]; ok && !slices.Contains(modes, mode) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		return nil, fmt.Errorf("%s does not apply to %s", strings.Join(unused, ", "), mode)
	}
	if mode != "experiments" && fs.NArg() > 0 {
		return nil, fmt.Errorf("experiment names do not apply to %s", mode)
	}
	if c.crashWorker != 0 && (c.transport != "tcp" || c.crashWorker < 0) {
		return nil, errors.New("-crash-worker takes a positive chunk ordinal and applies to -smoke -transport tcp")
	}
	if c.joinWorker && c.crashWorker == 0 {
		return nil, errors.New("-join-worker applies to -smoke -transport tcp with -crash-worker N")
	}
	if c.joinListen != "" && c.joinWorker {
		return nil, errors.New("-join-listen applies to -smoke, without -join-worker")
	}
	if names := fs.Args(); len(names) == 1 && names[0] == "all" {
		c.selected = experimentList()
	} else {
		for _, name := range names {
			e, ok := lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (run without arguments to list)", name)
			}
			c.selected = append(c.selected, e)
		}
	}
	if c.replicas > 1 && slices.ContainsFunc(c.selected, func(e experiment) bool { return e.Name == "fig19" }) {
		return nil, fmt.Errorf("-replicas %d does not apply to fig19: its minibatch is one microbatch", c.replicas)
	}
	return c, nil
}

// engineArgs returns the pipemare-worker flags that select the chosen
// engine.
func (c *config) engineArgs() []string {
	if c.engine == nil {
		return []string{"-engine", "reference"}
	}
	return []string{"-engine", "concurrent", "-workers", strconv.Itoa(c.workers)}
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

// run does the one thing the command line asked for: the smoke, the traced
// epoch, or experiments, which train with the engine, partition and
// replica count c names. Every mode trains in the chosen dtype.
func run(c *config) error {
	if c.smoke {
		if err := smokeRun(c); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		return nil
	}
	if c.traceOut != "" {
		if err := traceRun(c, os.Stdout); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		return nil
	}
	if len(c.selected) == 0 {
		fmt.Println("usage: pipemare-bench [-full] <experiment>... | all")
		fmt.Println("\navailable experiments:")
		for _, e := range experimentList() {
			fmt.Printf("  %-11s %s\n", e.Name, e.Title)
		}
		return nil
	}
	for i, e := range c.selected {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		start := time.Now()
		e.Run(os.Stdout, c)
		fmt.Printf("--- %s done in %.1fs ---\n", e.Name, time.Since(start).Seconds())
	}
	return nil
}

// traceRun trains the benchmark workload (P=4) for one traced epoch —
// every replica running the chosen engine — writes the recording as
// Chrome trace-event JSON to c.traceOut, and prints the derived
// utilization report (per-stage busy time, bubble fraction, MFU) to w
// against the measured wall clock. That clock runs from New to Run's end,
// the interval the trace covers: New's state handoff is its first span.
func traceRun(c *config, w io.Writer) error {
	const stages = 4
	rec := pipemare.NewTraceRecorder()
	dialers, release, err := startFollowers(c, stages, c.replicas-1, rec)
	if err != nil {
		return err
	}
	extra := []pipemare.Option{pipemare.WithTrace(rec)}
	if len(dialers) > 0 {
		extra = append(extra, pipemare.WithTransport(dialers...))
	}
	start := time.Now()
	tr, err := c.benchTrainer(stages, c.replicas, c.engine, extra...)
	if err != nil {
		return err
	}
	if _, err := tr.Run(context.Background(), 1); err != nil {
		return err
	}
	wall := time.Since(start).Nanoseconds()
	costs, arenas := tr.StageCosts(), tr.ArenaMemory()
	if err := tr.Close(); err != nil {
		return err
	}
	if err := release(); err != nil {
		return fmt.Errorf("%s follower: %w", c.transport, err)
	}
	f, err := os.Create(c.traceOut)
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
	rep.Format(w, wall)
	var fwd, bwd, carry int
	for _, a := range arenas {
		fwd, bwd, carry = max(fwd, a.Forward), max(bwd, a.Backward), max(carry, a.Carry)
	}
	fmt.Fprintf(w, "leader's tape arenas: %d machines, each at most %.1f KiB forward, %.1f KiB backward, %.1f KiB carry\n",
		len(arenas), float64(fwd)/1024, float64(bwd)/1024, float64(carry)/1024)
	fmt.Fprintf(w, "wrote %s\n", c.traceOut)
	return nil
}

// smokeRun trains the benchmark workload for one epoch with R=2 replicas,
// each running the chosen engine, over the chosen transport — the CI
// end-to-end check that a leader and a real worker process complete
// training together. It prints the final train loss so the log shows the
// run actually trained.
//
// c.crashWorker > 0 is the kill -9 smoke: the worker process hard-exits
// (status 137, no goodbye, no TCP FIN courtesy) upon receiving its
// crashWorker'th chunk request, and the run only passes if the leader
// detects the death, evicts the replica and finishes the epoch solo.
//
// c.joinWorker composes the crash smoke with elastic recovery: a
// replacement pipemare-worker -join process dials the leader's join
// listener and is admitted — no earlier than two steps past the crash,
// so the run demonstrably shrinks to R=1 first — via the live state
// handoff. The run passes only if the replacement is serving at exit
// (R=2 again) and the final loss bit-matches an uninterrupted
// in-process run: kill, eviction and rejoin cost zero curve deviation.
//
// c.joinListen is the interactive variant: the leader accepts joiners on
// the given TCP address and trains long enough (10 epochs) to run
// "pipemare-worker -join <addr>" by hand from another terminal; the
// exit line reports how many joined.
func smokeRun(c *config) error {
	// The replacement joiner spawns first — it has a task to build and a
	// dial-with-backoff to win before it can park — and the run trains two
	// epochs (16 minibatch boundaries), so even a heavily loaded runner
	// admits it well before the run ends.
	epochs := 1
	var jlis pipemare.Listener
	joinDone := make(chan error, 1)
	joinAddr := c.joinListen
	if c.joinWorker {
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
	case c.joinWorker:
		epochs = 2
		args := append([]string{"-join", jlis.Addr(), "-join-at", fmt.Sprint(c.crashWorker + 2)}, c.engineArgs()...)
		cmd := exec.Command(c.workerBin, args...)
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
	if c.crashWorker > 0 {
		workerArgs = append(workerArgs, "-crash-after", fmt.Sprint(c.crashWorker))
	}
	dialers, release, err := startFollowers(c, 4, 1, nil, workerArgs...)
	if err != nil {
		return err
	}
	var extra []pipemare.Option
	if len(dialers) > 0 {
		extra = append(extra, pipemare.WithTransport(dialers...))
	}
	if c.crashWorker > 0 {
		extra = append(extra, pipemare.WithFaultTolerance())
	}
	if jlis != nil {
		extra = append(extra, pipemare.WithElastic())
	}
	tr, err := c.benchTrainer(4, 2, c.engine, extra...)
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
	if err := release(); err != nil && c.crashWorker == 0 {
		return fmt.Errorf("%s follower: %w", c.transport, err)
	}
	if c.joinListen != "" {
		joins, demotions, handoffNs := tr.ElasticStats()
		fmt.Printf("smoke ok: R=%d at exit over %s (%d joined mid-run, %d demoted, handoff %.1fms), train loss %.6f\n",
			tr.Replicas(), c.transport, joins, demotions, float64(handoffNs)/1e6, run.Loss[run.Epochs()-1])
		return nil
	}
	if c.joinWorker {
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
		ref, err := c.benchTrainer(4, 2, nil,
			pipemare.WithFaultTolerance())
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
			c.transport, c.crashWorker, got)
		return nil
	}
	if c.crashWorker > 0 {
		if got := tr.Replicas(); got != 1 {
			return fmt.Errorf("killed worker was not evicted: %d replicas survive, want 1", got)
		}
		fmt.Printf("smoke ok: R=2 over %s, worker killed at chunk %d, evicted to R=1, train loss %.6f\n",
			c.transport, c.crashWorker, run.Loss[run.Epochs()-1])
		return nil
	}
	fmt.Printf("smoke ok: R=2 over %s, train loss %.6f\n", c.transport, run.Loss[run.Epochs()-1])
	return nil
}

// startFollowers launches n follower endpoints of c.transport for one
// run, each running the chosen engine, and returns the dialers for
// WithTransport plus a release function to call after Trainer.Close: it
// reaps the followers and returns the first session error. "inproc"
// returns no dialers — the trainer builds its followers in-process.
// A loopback follower records its slots into rec (nil: off), under its
// replica index. workerArgs are passed through to each spawned tcp worker
// (e.g. -crash-after for the kill -9 smoke). When a spawn fails, every
// worker already spawned is killed and reaped: nothing will ever dial it.
func startFollowers(c *config, stages, n int, rec *pipemare.TraceRecorder, workerArgs ...string) ([]pipemare.Dialer, func() error, error) {
	var dialers []pipemare.Dialer
	var waits []func() error // one per follower: how its session ended
	var spawned []*os.Process
	release := func() error {
		var first error
		for _, wait := range waits {
			if err := wait(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	fail := func(err error) ([]pipemare.Dialer, func() error, error) {
		for _, p := range spawned {
			p.Kill()
		}
		release()
		return nil, nil, err
	}
	if c.transport == "inproc" {
		n = 0
	}
	for i := 0; i < n; i++ {
		if c.transport == "loopback" {
			lis, dial := pipemare.Loopback()
			opts := append(experiments.EngineBenchOptions(stages), pipemare.WithDType(c.dtype))
			if c.engine != nil {
				opts = append(opts, pipemare.WithEngine(c.engine))
			}
			if rec != nil {
				opts = append(opts, pipemare.WithTrace(rec))
			}
			done := make(chan error, 1)
			go func() {
				done <- pipemare.ServeFollower(context.Background(), lis, experiments.EngineBenchTask(), opts...)
			}()
			waits = append(waits, func() error { return <-done })
			dialers = append(dialers, dial)
			continue
		}
		args := append([]string{"-addr", "127.0.0.1:0"}, c.engineArgs()...)
		cmd := exec.Command(c.workerBin, append(args, workerArgs...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail(err)
		}
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("spawning %s: %w", c.workerBin, err))
		}
		spawned = append(spawned, cmd.Process)
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
			return fail(fmt.Errorf("%s exited without announcing its address", c.workerBin))
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
