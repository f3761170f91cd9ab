package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"pipemare"
	"pipemare/internal/experiments"
)

// TestParseFlags pins the command line: the three flags of the deleted
// perf-record path are gone, and every cross-flag rule main enforces
// still holds.
func TestParseFlags(t *testing.T) {
	const tcp = "-smoke -transport tcp "
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"-json", false},
		{"-faults drop@2,kill@5", false},
		{"-join join@2", false},

		{"", true},
		{"all", true},
		{"-full -engine concurrent -workers 2 -partition cost -replicas 2 -dtype float32 table1 fig3a", true},
		{"-partition profile table1", true},
		{"nosuchexperiment", false},
		{"all table1", false},
		{"-workers -1", false},
		{"-workers 2", false},
		{"-workers 2 -engine reference", false},
		{"-engine bogus", false},
		{"-partition bogus", false},
		{"-dtype bfloat16", false},
		{"-replicas 0", false},
		{"-replicas 9", false},
		{"-transport udp -smoke", false},

		{"-transport loopback", false},
		{"-transport tcp table1", false},
		{"-smoke", true},
		{"-smoke -transport loopback", true},
		{tcp + "-worker ./w -dtype float32", true},
		{"-trace t.json -transport loopback -engine concurrent -replicas 2", true},

		{"-crash-worker 3", false},
		{"-smoke -transport loopback -crash-worker 3", false},
		{tcp + "-crash-worker -1", false},
		{tcp + "-crash-worker 3", true},
		{tcp + "-join-worker", false},
		{tcp + "-crash-worker 3 -join-worker", true},
		{"-join-listen 127.0.0.1:0", false},
		{"-smoke -join-listen 127.0.0.1:0", true},
		{tcp + "-crash-worker 3 -join-worker -join-listen 127.0.0.1:0", false},
	} {
		_, err := parseFlags(strings.Fields(tc.args), io.Discard)
		if (err == nil) != tc.ok {
			t.Errorf("pipemare-bench %s: err = %v, want accepted = %t", tc.args, err, tc.ok)
		}
	}
}

func TestSmokeLoopback(t *testing.T) {
	if err := smokeRun("loopback", "", 0, false, ""); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeTCPKillJoin drives the leader against real pipemare-worker
// processes: the worker is killed mid-epoch and evicted, and with a
// replacement joiner the run must end at R=2 on the uninterrupted curve —
// in both dtypes, so the joiner is known to be spawned in the leader's.
func TestSmokeTCPKillJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns pipemare-worker processes")
	}
	dir := t.TempDir()
	worker := filepath.Join(dir, "pipemare-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "pipemare/cmd/pipemare-worker").CombinedOutput(); err != nil {
		t.Fatalf("building pipemare-worker: %v\n%s", err, out)
	}
	t.Cleanup(func() { experiments.DType = pipemare.Float64 })
	for _, dt := range []pipemare.DType{pipemare.Float64, pipemare.Float32} {
		experiments.DType = dt
		for _, join := range []bool{false, true} {
			if err := smokeRun("tcp", worker, 3, join, ""); err != nil {
				t.Errorf("%s, join-worker=%t: %v", dt, join, err)
			}
		}
	}

	// A worker binary that joins for real but refuses to serve (once the
	// joiner is up) makes smokeRun fail after it spawned the joiner, which
	// must not outlive it.
	pidFile := filepath.Join(dir, "joiner.pid")
	script := filepath.Join(dir, "worker.sh")
	body := fmt.Sprintf(`#!/bin/sh
case " $* " in *" -join "*) echo $$ > %[1]s; exec %[2]s "$@";; esac
while [ ! -s %[1]s ]; do sleep 0.05; done
exit 1
`, pidFile, worker)
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := smokeRun("tcp", script, 3, true, ""); err == nil {
		t.Fatal("smoke passed with a worker that never serves")
	}
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Fatalf("joiner process %d outlived the failed smoke (kill -0: %v)", pid, err)
	}
}
