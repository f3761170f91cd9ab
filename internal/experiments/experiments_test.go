package experiments

import "testing"

func TestWorkloadConstructorsBuild(t *testing.T) {
	for _, wl := range []Workload{CIFARLike(), ImageNetLike(), IWSLTLike(), WMTLike()} {
		task := wl.NewTask(1)
		if len(task.Groups()) < 40 {
			t.Errorf("%s has only %d weight groups", wl.Name, len(task.Groups()))
		}
		if task.NumTrain() < wl.BatchSize {
			t.Errorf("%s training set smaller than a batch", wl.Name)
		}
	}
	// The CIFAR substitute matches the paper's 107-stage geometry.
	if got := len(CIFARLike().NewTask(1).Groups()); got != 107 {
		t.Fatalf("cifar-like has %d groups, want 107", got)
	}
}
