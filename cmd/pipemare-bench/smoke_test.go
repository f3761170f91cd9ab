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
	"time"

	"pipemare"
)

// TestParseFlags pins the command line: the three flags of the deleted
// perf-record path are gone, a flag or experiment name the selected mode
// would ignore is refused, and every cross-flag rule main enforces still
// holds.
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
		{"-dtype float32 -partition cost fig19", true},
		{"-replicas 2 fig19", false},
		{"-replicas 2 all", false},
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
		{"-transport inproc table1", false},

		{"-transport loopback", false},
		{"-transport tcp table1", false},
		{"-smoke", true},
		{"-smoke -transport loopback", true},
		{tcp + "-worker ./w -dtype float32", true},
		{"-trace t.json -transport loopback -engine concurrent -replicas 2", true},
		{"-smoke -engine concurrent -workers 2 -dtype float32", true},
		{"-smoke -full", false},
		{"-smoke -partition cost", false},
		{"-smoke -replicas 4", false},
		{"-smoke table1", false},
		{"-smoke -trace t.json", false},
		{"-trace t.json -full", false},
		{"-trace t.json -partition cost", false},
		{"-trace t.json table1", false},
		{"-trace t.json -join-listen 127.0.0.1:0", false},

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
	if err := smokeRun(&config{transport: "loopback"}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceWallWithinMeasuredWall runs the traced epoch at R = 2 over
// loopback: the trace's extent, from New's state handoff to the last
// commit, must lie inside the measured wall, so the accounting line reads
// at most 100%.
func TestTraceWallWithinMeasuredWall(t *testing.T) {
	c, err := parseFlags([]string{"-trace", filepath.Join(t.TempDir(), "t.json"), "-replicas", "2", "-transport", "loopback"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := traceRun(c, &out); err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(out.String(), "trace wall is ")
	var pct float64
	if _, err := fmt.Sscanf(line, "%f%%", &pct); err != nil || pct > 100 {
		t.Fatalf("accounting line %q: want a trace wall of at most 100%% of the measured wall\n%s", line, out.String())
	}
}

// buildWorker builds pipemare-worker into dir.
func buildWorker(t *testing.T, dir string) string {
	t.Helper()
	worker := filepath.Join(dir, "pipemare-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "pipemare/cmd/pipemare-worker").CombinedOutput(); err != nil {
		t.Fatalf("building pipemare-worker: %v\n%s", err, out)
	}
	return worker
}

// writeScript writes an executable shell script to dir.
func writeScript(t *testing.T, dir, body string) string {
	t.Helper()
	script := filepath.Join(dir, "worker.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
		t.Fatal(err)
	}
	return script
}

// TestSmokeTCPPassesTheEngine runs the tcp smoke with -engine concurrent
// -workers 2 through a worker script that records its arguments before it
// execs the real worker: the spawned follower must be asked for the
// leader's engine.
func TestSmokeTCPPassesTheEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns pipemare-worker processes")
	}
	dir := t.TempDir()
	argsFile := filepath.Join(dir, "args")
	script := writeScript(t, dir, fmt.Sprintf("echo \"$*\" >> %s\nexec %s \"$@\"\n", argsFile, buildWorker(t, dir)))
	c, err := parseFlags(strings.Fields("-smoke -transport tcp -worker "+script+" -engine concurrent -workers 2"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := smokeRun(c); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(argsFile)
	if err != nil {
		t.Fatal(err)
	}
	if args := strings.TrimSpace(string(raw)); !strings.Contains(args, "-engine concurrent -workers 2") {
		t.Fatalf("the worker was spawned with %q, want -engine concurrent -workers 2", args)
	}
}

// TestFailedSpawnReapsEarlierWorkers spawns two tcp followers through a
// script that execs the real worker the first time and exits 1 the
// second: startFollowers must return an error rather than wait on the
// first worker, which nothing will dial, and must kill and reap it.
func TestFailedSpawnReapsEarlierWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns pipemare-worker processes")
	}
	dir := t.TempDir()
	pidFile := filepath.Join(dir, "first.pid")
	script := writeScript(t, dir, fmt.Sprintf("[ -e %[1]s ] && exit 1\necho $$ > %[1]s\nexec %[2]s \"$@\"\n", pidFile, buildWorker(t, dir)))
	done := make(chan error, 1)
	go func() {
		_, _, err := startFollowers(&config{transport: "tcp", workerBin: script}, 4, 2, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("startFollowers succeeded with a worker that never announced its address")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("startFollowers hung after a failed spawn")
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
		t.Fatalf("the first worker %d outlived the failed spawn (kill -0: %v)", pid, err)
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
	worker := buildWorker(t, dir)
	for _, dt := range []pipemare.DType{pipemare.Float64, pipemare.Float32} {
		for _, join := range []bool{false, true} {
			if err := smokeRun(&config{transport: "tcp", workerBin: worker, dtype: dt, crashWorker: 3, joinWorker: join}); err != nil {
				t.Errorf("%s, join-worker=%t: %v", dt, join, err)
			}
		}
	}

	// A worker binary that joins for real but refuses to serve (once the
	// joiner is up) makes smokeRun fail after it spawned the joiner, which
	// must not outlive it.
	pidFile := filepath.Join(dir, "joiner.pid")
	script := writeScript(t, dir, fmt.Sprintf(`case " $* " in *" -join "*) echo $$ > %[1]s; exec %[2]s "$@";; esac
while [ ! -s %[1]s ]; do sleep 0.05; done
exit 1
`, pidFile, worker))
	if err := smokeRun(&config{transport: "tcp", workerBin: script, crashWorker: 3, joinWorker: true}); err == nil {
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
