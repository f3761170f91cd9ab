package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
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
// corrected weight and moment, and every ring (base, newest version —
// the step count — and snapshots) — into bytes, so "untouched" is one
// comparison. It walks the trainer's fields itself rather than the stage
// layout the importer uses.
func liveState(tr *Trainer) []byte {
	var b []byte
	for i := range tr.masters {
		b = transport.AppendTensors(b, []*tensor.Tensor{tr.masters[i], tr.delta[i], tr.corrected[i]})
		b = transport.AppendTensors(b, tr.opt.MomentTensors(i))
	}
	for s := 0; s < tr.clock.P; s++ {
		base, snaps := tr.store.History(s)
		b = transport.AppendU32(b, uint32(base))
		b = transport.AppendU32(b, uint32(tr.store.Latest(s)))
		for _, snap := range snaps {
			b = transport.AppendTensors(b, snap)
		}
	}
	return b
}

// TestRestoreRejectedLeavesTrainerUntouched pins RestoreFrom's contract
// for files that are intact (every frame's CRC holds) but do not fit the
// trainer: the restore is refused with an error naming what differs, and
// not one master, δ, moment, ring or clock has changed — the trainer
// trains on as if the restore had never been tried. The shape case is a
// regression: its first three stages fit, and used to be overwritten
// before the fourth was looked at. The ring case is the clock's check:
// the rings carry the step count, so every one must end at the same
// version.
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
	// reframed writes a fitting checkpoint whose section sec has the u32
	// at byte off set to v, under a valid frame CRC. Section 0 is the meta
	// (format, stages); section 1+s is stage s's record (ring base, ring
	// count, ...).
	reframed := func(sec, off int, v uint32) string {
		path := write(trained(restoreProbe(t, tensor.Float64, 1, 1, 1, 1, 1)))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		fw := transport.NewFrameWriter(&b)
		for i := 0; len(raw) > 0; i++ {
			m, rest, err := transport.NextMessage(raw)
			if err != nil {
				t.Fatal(err)
			}
			if i == sec {
				copy(m.Data[off:], transport.AppendU32(nil, v))
			}
			if err := fw.WriteMsg(m); err != nil {
				t.Fatal(err)
			}
			raw = rest
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
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
		{"format 2 header", func() string { return reframed(0, 0, 2) }, "format version 2, want 6"},
		{"format 5 header", func() string { return reframed(0, 0, 5) }, "format version 5, want 6"},
		// A format 5 file's frames carry wire version 9 (a state and a ring
		// section per stage): the frame reader refuses its first frame.
		{"wire version 9 frames", func() string {
			path := write(restoreProbe(t, tensor.Float64, 1, 1, 1, 1, 1))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			n := 16 + int(binary.BigEndian.Uint32(raw[12:16]))
			raw[2] = 9
			binary.BigEndian.PutUint32(raw[n:], crc32.ChecksumIEEE(raw[:n]))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}, "protocol version 9, want 10"},
		// Ring 3, the last stage's, holds one version (Clock.Keep(4) = 1):
		// version 4 at base 4. Base 3 ends it at version 3.
		{"ring 3 ends a version early", func() string { return reframed(1+3, 0, 3) },
			"ring 3 ends at version 3, ring 0 at 4"},
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
				t.Fatalf("the rejected restore changed live state (masters[0] now %v, stage-0 ring latest %d)",
					tr.masters[0], tr.store.Latest(0))
			}
			if _, err := trained(tr).Run(ctx, 1); err != nil || tr.steps() != 8 {
				t.Fatalf("after the rejected restore: step %d, err %v; want 8 steps trained", tr.steps(), err)
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

// TestSetStageStateRefusesABadRecord pins the follower side of a handoff
// (MsgSetState): a stage record whose ring holds no version or a version
// of another layout, or whose rest has another count, shape or dtype,
// panics — which the serve loop answers with an error reply — naming the
// stage, before anything live changes, so the follower's rings, masters,
// δ and moments are exactly as before. The stage's own record imports
// over it and changes nothing either.
func TestSetStageStateRefusesABadRecord(t *testing.T) {
	tr := restoreProbe(t, tensor.Float64, 0, 1, 1, 1, 1)
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	base, good, rest := host{tr}.HandoffState(2)
	if len(rest) != 1 {
		t.Fatalf("stage 2 hands off %d tensors beside its ring, want δ alone", len(rest))
	}
	for _, tc := range []struct {
		name    string
		snaps   [][]*tensor.Tensor
		rest    []*tensor.Tensor
		wantErr string
	}{
		{"empty ring", nil, rest, "ring 2 holds no weight version"},
		{"mis-shaped snapshot", [][]*tensor.Tensor{good[0], {tensor.New(2)}}, rest, "ring: stage 2 tensor 0 shape [2], want [1]"},
		{"rest of another count", good, []*tensor.Tensor{rest[0], rest[0]}, "rest: stage 2 state has 2 tensors, want 1"},
		{"rest of another shape", good, []*tensor.Tensor{tensor.New(2)}, "rest: stage 2 tensor 0 shape [2], want [1]"},
		{"rest of another dtype", good, []*tensor.Tensor{tensor.NewOf(tensor.Float32, 1)}, "rest: stage 2 tensor 0 dtype float32, want float64"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveState(tr)
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.wantErr) {
						t.Fatalf("SetStageState = %v, want a panic containing %q", r, tc.wantErr)
					}
				}()
				host{tr}.SetStageState(2, base, tc.snaps, tc.rest)
			}()
			if string(liveState(tr)) != string(before) {
				t.Fatal("the refused record changed live state")
			}
		})
	}
	before := liveState(tr)
	host{tr}.SetStageState(2, base, good, rest)
	if string(liveState(tr)) != string(before) {
		t.Fatal("importing the stage's own record changed live state")
	}
}

// pullOp is group g's op in a probe task that trains: loss ½(w−1)² over
// the weight its forward slot read, gradient over the backward weights, so
// every stale version a slot reads shows in the curve.
type pullOp struct {
	t *probeTask
	g int
}

func (o pullOp) Forward(m *nn.Machine) {
	w := o.t.params[o.g].Data.FlatAt(0) - 1
	m.Loss += 0.5 * w * w
}

func (o pullOp) Backward(*nn.Machine) {
	p := o.t.params[o.g]
	p.Grad.SetFlat(0, p.Grad.FlatAt(0)+p.BwdData().FlatAt(0)-1)
}

func (pullOp) Regs() ([]nn.Reg, nn.Reg) { return nil, -1 }

// TestHogwildRestoreResumesBitIdentical: a run under Appendix E's Hogwild
// delays, restored from a checkpoint taken mid-epoch, retraces the
// uninterrupted run bit for bit — the draws are a function of (seed,
// minibatch, stage), and the checkpoint carries the ring of every version
// they reach back to. The restored run's first epoch is partial, so its
// loss averages fewer minibatches; its parameter norm, and every later
// entry, must match exactly.
func TestHogwildRestoreResumesBitIdentical(t *testing.T) {
	ctx := context.Background()
	build := func(dir string) *Trainer {
		task := sizedProbeTask(32, 1, 1, 1, 1)
		task.prog = stubProgram(4, func(g int) nn.Op { return pullOp{task, g} })
		for g, p := range task.params {
			p.Data.Fill(float64(3 * g))
		}
		tr, err := New(task, optim.NewAdamW(task.params, 0.9, 0.98, 1e-9, 1e-2), optim.Constant(0.2), Config{
			Method: PipeMare, Stages: 4, BatchSize: 4, MicrobatchSize: 2, T1K: 8, T2D: 0.3, Seed: 5,
			Hogwild:       &pipeline.Hogwild{TauMax: 8, MeanScale: 0.8},
			CheckpointDir: dir, CheckpointEvery: 12, // 8 minibatches per epoch
		})
		if err != nil {
			t.Fatal(err)
		}
		task.tr = tr
		return tr
	}
	dir := t.TempDir()
	ref := build(dir)
	want, err := ref.Run(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := build("")
	if err := tr.RestoreFrom(filepath.Join(dir, "ckpt-00000012.pm")); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Run(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := range got.Loss {
		if got.ParamNorm[e] != want.ParamNorm[e+1] || (e > 0 && got.Loss[e] != want.Loss[e+1]) {
			t.Fatalf("restored epoch %d: loss %v norm %v, uninterrupted loss %v norm %v", e+2, got.Loss[e], got.ParamNorm[e], want.Loss[e+1], want.ParamNorm[e+1])
		}
	}
	if string(liveState(tr)) != string(liveState(ref)) {
		t.Fatal("the restored run ended in another state than the uninterrupted one")
	}
}
