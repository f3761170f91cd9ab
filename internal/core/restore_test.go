package core

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"pipemare/internal/optim"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// restoreProbe builds a 4-stage PipeMare trainer with T2 and AdamW (so a
// stage has every kind of state: master, δ, corrected, two moments) over
// probe parameters of the given sizes and dtype, every weight of group g
// starting at fill+g.
func restoreProbe(t *testing.T, dt tensor.DType, fill float64, sizes ...int) *Trainer {
	t.Helper()
	task := sizedProbeTask(32, sizes...)
	for g, p := range task.params {
		p.Data.Fill(fill + float64(g))
		p.CastTo(dt)
	}
	tr, err := New(task, optim.NewAdamW(task.params, 0.9, 0.98, 1e-9, 1e-2), optim.Constant(0.1), Config{
		Method: PipeMare, Stages: 4, BatchSize: 8, MicrobatchSize: 2, T2D: 0.3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	task.tr = tr
	return tr
}

// liveState flattens everything a restore may write — every master, δ,
// corrected weight and moment, every ring (base, newest version and
// snapshots) and the clocks — into bytes, so "untouched" is one
// comparison. It walks the trainer's fields itself rather than the stage
// layout the importer uses.
func liveState(tr *Trainer) []byte {
	var b []byte
	for i := range tr.masters {
		b = transport.AppendTensors(b, []*tensor.Tensor{tr.masters[i], tr.delta[i], tr.corrected[i]})
		b = transport.AppendTensors(b, tr.stateful.MomentTensors(i))
	}
	for s := 0; s < tr.clock.P; s++ {
		base, snaps := tr.store.History(s)
		b = transport.AppendU32(b, uint32(base))
		b = transport.AppendU32(b, uint32(tr.store.Latest(s)))
		for _, snap := range snaps {
			b = transport.AppendTensors(b, snap)
		}
	}
	for _, v := range []int{tr.step, tr.epoch, tr.micro, tr.stateful.Clock()} {
		b = transport.AppendU32(b, uint32(v))
	}
	return b
}

// TestRestoreRejectedLeavesTrainerUntouched pins RestoreFrom's contract
// for files that are intact (every frame's CRC holds) but do not fit the
// trainer: the restore is refused with an error naming what differs, and
// not one master, δ, moment, ring or clock has changed — the trainer
// trains on as if the restore had never been tried. The shape case is the
// regression: its first three stages fit, and used to be overwritten
// before the fourth was looked at.
func TestRestoreRejectedLeavesTrainerUntouched(t *testing.T) {
	ctx := context.Background()
	trained := func(tr *Trainer) *Trainer {
		if _, err := tr.Run(ctx, 1); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	write := func(tr *Trainer) string {
		path, err := tr.WriteCheckpoint(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		path    func() string
		wantErr string
	}{
		{"last tensor has another shape", func() string {
			return write(trained(restoreProbe(t, tensor.Float64, 1, 1, 1, 1, 2)))
		}, "stage 3 tensor 0 shape [2], want [1]"},
		{"float32 checkpoint into a float64 trainer", func() string {
			return write(restoreProbe(t, tensor.Float32, 1, 1, 1, 1, 1))
		}, "stage 0 tensor 0 dtype float32, want float64"},
		{"format 2 header", func() string {
			// A fitting checkpoint whose meta section claims format 2.
			path := write(trained(restoreProbe(t, tensor.Float64, 1, 1, 1, 1, 1)))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			meta, rest, err := transport.NextMessage(raw)
			if err != nil {
				t.Fatal(err)
			}
			copy(meta.Data, transport.AppendU32(nil, 2))
			var reframed bytes.Buffer
			if err := transport.NewFrameWriter(&reframed).WriteMsg(meta); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(reframed.Bytes(), rest...), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}, "format version 2, want 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := restoreProbe(t, tensor.Float64, 0, 1, 1, 1, 1)
			before := liveState(tr)
			err := tr.RestoreFrom(tc.path())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreFrom = %v, want an error containing %q", err, tc.wantErr)
			}
			if string(liveState(tr)) != string(before) {
				t.Fatalf("the rejected restore changed live state (masters[0] now %v, stage-0 ring latest %d, step %d)",
					tr.masters[0], tr.store.Latest(0), tr.step)
			}
			if _, err := trained(tr).Run(ctx, 1); err != nil || tr.step != 8 {
				t.Fatalf("after the rejected restore: step %d, err %v; want 8 steps trained", tr.step, err)
			}
		})
	}
	// The same file restores into a trainer it fits — the cases above are
	// refused for what they are, not for how they were written.
	tr := restoreProbe(t, tensor.Float64, 0, 1, 1, 1, 1)
	src := trained(restoreProbe(t, tensor.Float64, 1, 1, 1, 1, 1))
	if err := tr.RestoreFrom(write(src)); err != nil {
		t.Fatal(err)
	}
	if string(liveState(tr)) != string(liveState(src)) {
		t.Fatal("a fitting checkpoint did not restore the writer's state")
	}
}
