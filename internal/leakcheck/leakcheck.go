// Package leakcheck fails a test binary whose goroutines outlive its
// tests. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// Only test files import it.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the package's tests and exits non-zero when, after a settle
// of up to a second, more goroutines run than before the first test. A
// -fuzz run is exempt: its coordinator leaves os/signal's watcher running.
func Main(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	if n := Settled(baseline, time.Second); code == 0 && n > baseline {
		fmt.Fprintf(os.Stderr, "%d goroutines outlive the tests\n", n-baseline)
		code = 1
	}
	os.Exit(code)
}

// Settled polls for up to d for the goroutine count to fall to baseline
// and returns the count it ends at.
func Settled(baseline int, d time.Duration) int {
	for deadline := time.Now().Add(d); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}
