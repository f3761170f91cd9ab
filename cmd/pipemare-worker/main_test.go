package main

import (
	"bufio"
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestWorkerProcess drives the built binary the way an orchestrator does:
// a bad -engine value, a negative -workers, and a -workers the
// reference engine would ignore, are refused with exit 2 before anything
// listens; a good invocation announces "listening <addr>" on a loopback
// port, and an ordinary stop (SIGTERM) while it waits for its leader
// drains it — "drained (signal)", exit 0 — rather than failing it.
func TestWorkerProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns pipemare-worker")
	}
	worker := filepath.Join(t.TempDir(), "pipemare-worker")
	if out, err := exec.Command("go", "build", "-o", worker, "pipemare/cmd/pipemare-worker").CombinedOutput(); err != nil {
		t.Fatalf("building pipemare-worker: %v\n%s", err, out)
	}
	for _, tc := range []struct{ flags, names string }{
		{"-engine bogus", "bogus"}, {"-workers 2", "-workers"},
		{"-engine concurrent -workers -3", "-workers must be >= 0, got -3"},
	} {
		flags := strings.Fields(tc.flags)
		var stderr bytes.Buffer
		cmd := exec.Command(worker, flags...)
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("pipemare-worker %v: %v, want exit status 2", flags, err)
		}
		if !strings.Contains(stderr.String(), tc.names) {
			t.Fatalf("pipemare-worker %v: stderr %q does not name %q", flags, stderr.String(), tc.names)
		}
	}

	cmd := exec.Command(worker, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc := bufio.NewScanner(stdout); sc.Scan(); {
			lines <- sc.Text()
		}
	}()
	next := func(what string) string {
		t.Helper()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("worker closed stdout before %s", what)
			}
			return line
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("no %s within 30s", what)
		}
		return ""
	}
	if line := next("the listening line"); !strings.HasPrefix(line, "listening 127.0.0.1:") || strings.HasSuffix(line, ":0") {
		cmd.Process.Kill()
		t.Fatalf("first line %q, want \"listening 127.0.0.1:<port>\"", line)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if line := next("the drain line"); line != "drained (signal)" {
		cmd.Process.Kill()
		t.Fatalf("after SIGTERM the worker printed %q, want \"drained (signal)\"", line)
	}
	for range lines { // drain to EOF so Wait may close the pipe
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("worker exited with %v after SIGTERM, want status 0", err)
	}
}
