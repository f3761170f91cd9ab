// Command pipemare-worker hosts one follower replica of the engine
// benchmark workload as a standalone process. A pipemare-bench leader
// (run with -transport tcp) dials it, and the handshake assigns the
// replica id, replica count and commit mode — the same invocation serves
// any follower slot.
//
//	pipemare-worker                    # listen on a free port, print it
//	pipemare-worker -addr :9400        # fixed port
//	pipemare-worker -engine concurrent # work-stealing chunk engine
//	pipemare-worker -crash-after 3     # kill -9 itself at its 3rd chunk
//	pipemare-worker -join :9500        # join a running elastic leader
//
// The worker prints "listening <addr>" once it accepts connections, so a
// spawning leader can scrape the resolved port, serves exactly one
// leader session, and exits 0 after a clean goodbye (Trainer.Close).
// SIGTERM drains: the serve loop unwinds at the next protocol boundary
// and the worker exits 0, so an orchestrator's ordinary stop is not an
// error. -crash-after N exits with status 137 (the kill -9 status) upon
// receiving the Nth chunk request — the reproducible mid-training crash
// the leader's fault-tolerance layer is tested against.
//
// With -join <addr> the worker dials instead of listening: it connects
// to a running WithElastic leader's join listener (retrying with
// backoff for up to -dial-timeout, so launch order does not matter),
// waits to be admitted at a minibatch boundary — no earlier than the
// leader step given by -join-at — receives the live state handoff, and
// serves as the new follower replica from there on. -addr and
// -crash-after are ignored when joining.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pipemare"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/experiments"
	"pipemare/internal/faults"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP address to listen on (port 0 picks a free port)")
	stages := flag.Int("stages", 4, "pipeline stages; must match the leader's -P")
	engineName := flag.String("engine", "reference", "chunk execution engine: reference | concurrent")
	workers := flag.Int("workers", 0, "scheduler workers for the concurrent engine (0 = min(P, GOMAXPROCS))")
	crashAfter := flag.Int("crash-after", 0, "exit(137) upon receiving the Nth chunk request (fault-injection testing; 0 disables)")
	joinAddr := flag.String("join", "", "dial a running elastic leader's join listener at this address instead of serving (mid-run join)")
	joinAt := flag.Int("join-at", 0, "earliest leader optimizer step to be admitted at (-join only; 0 = next minibatch boundary)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "dial retry/backoff budget for -join")
	dtypeName := flag.String("dtype", "float64", "element type model state trains in: float64 | float32; must match the leader's -dtype (the handshake checksum rejects a mismatch)")
	flag.Parse()

	dt, err := tensor.ParseDType(*dtypeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipemare-worker: %v\n", err)
		os.Exit(2)
	}
	experiments.DType = dt

	opts := experiments.EngineBenchOptions(*stages)
	switch *engineName {
	case "reference":
	case "concurrent":
		opts = append(opts, pipemare.WithEngine(concurrent.New(concurrent.WithWorkers(*workers))))
	default:
		fmt.Fprintf(os.Stderr, "pipemare-worker: unknown engine %q (want reference or concurrent)\n", *engineName)
		os.Exit(2)
	}
	if *workers > 0 && *engineName != "concurrent" {
		fmt.Fprintln(os.Stderr, "pipemare-worker: -workers applies to -engine concurrent")
		os.Exit(2)
	}

	// Installed before "listening" is printed: a spawner that scrapes the
	// line may send its stop the moment it appears.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *joinAddr != "" {
		opts = append(opts,
			pipemare.WithJoinAt(*joinAt),
			pipemare.WithDialTimeout(*dialTimeout))
		fmt.Printf("joining %s\n", *joinAddr)
		err := pipemare.JoinFollower(ctx, pipemare.DialTCP(*joinAddr), experiments.EngineBenchTask(), opts...)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, context.Canceled) {
				fmt.Println("drained (signal)")
				return
			}
			fmt.Fprintf(os.Stderr, "pipemare-worker: join: %v\n", err)
			os.Exit(1)
		}
		return
	}

	lis, err := pipemare.ListenTCP(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipemare-worker: %v\n", err)
		os.Exit(1)
	}
	defer lis.Close()
	fmt.Printf("listening %s\n", lis.Addr())

	served := pipemare.Listener(lis)
	if *crashAfter > 0 {
		served = &faults.Listener{Inner: lis, Script: faults.NewScript(faults.Rule{
			Dir: faults.Recv, Type: transport.MsgRunChunk, Nth: *crashAfter,
			Op: faults.Hook, Hook: func() { os.Exit(137) },
		})}
	}

	if err := pipemare.ServeFollower(ctx, served, experiments.EngineBenchTask(), opts...); err != nil {
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			// SIGTERM/SIGINT drain: an orchestrator asked us to stop; the
			// serve loop unwound cleanly at a protocol boundary.
			fmt.Println("drained (signal)")
			return
		}
		fmt.Fprintf(os.Stderr, "pipemare-worker: %v\n", err)
		os.Exit(1)
	}
}
