package pipemare_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestTrainerLinksNoPaperAnalysis keeps the paper-analysis packages out of
// the trainer and the worker process: quad, poly, throughput and memmodel
// reproduce the paper's closed-form results for pipemare-bench's
// regenerators and train nothing. Linked into either, they would be code
// the trainer ships but never runs, and CI's arm64 FMA and math.Exp checks,
// which cover every package the two link, would have to exempt them.
func TestTrainerLinksNoPaperAnalysis(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".", "./cmd/pipemare-worker").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch strings.TrimPrefix(pkg, "pipemare/internal/") {
		case "quad", "poly", "throughput", "memmodel":
			t.Errorf("the trainer or pipemare-worker links %s", pkg)
		}
	}
}
