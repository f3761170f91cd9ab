package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
)

// fuzzTrainer builds the small all-techniques trainer the fuzz target
// restores into: 4 probe groups over 4 stages with T2 on, so the
// checkpoint carries every section kind (meta, per-stage state with
// masters/delta/moments, version rings).
func fuzzTrainer(f testing.TB) *Trainer {
	task := newProbeTask(4, 32)
	var ps []*nn.Param
	for _, g := range task.groups {
		ps = append(ps, g.Params...)
	}
	tr, err := New(task, &countingOptimizer{ps: ps}, optim.Constant(0.1), Config{
		Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2,
		T2D: 0.3, Seed: 7,
	})
	if err != nil {
		f.Fatal(err)
	}
	task.tr = tr
	return tr
}

// FuzzRestoreFrom fuzzes the checkpoint parser behind RestoreFrom — the
// same codec the live join handoff reuses — with a real checkpoint as
// the seed corpus. The contract under arbitrary bytes is error-or-
// success, never a panic, and never a half-applied restore that later
// training trips over: after a failed restore the trainer must still
// train.
func FuzzRestoreFrom(f *testing.F) {
	seedTr := fuzzTrainer(f)
	seedTr.Run(context.Background(), 1)
	path, err := seedTr.WriteCheckpoint(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add(raw[:len(raw)/2])
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	truncTail := append([]byte(nil), raw[:len(raw)-3]...)
	f.Add(truncTail)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "ckpt-00000001.pm")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tr := fuzzTrainer(t)
		if err := tr.RestoreFrom(p); err != nil {
			// A rejected restore must leave the trainer trainable.
			tr.Run(context.Background(), 1)
		}
	})
}
