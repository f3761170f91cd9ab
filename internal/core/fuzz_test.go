package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
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

// FuzzRecipe fuzzes the hello's recipe decoder and the follower built
// from what it accepts, seeded with a valid recipe per method × dtype (one
// of them under Hogwild delays) and with recipes a follower must refuse:
// cut short, an unknown method or dtype, a stage map that goes back, skips
// a stage or covers another group count, a microbatch size that does not
// divide the batch, and values the decoder passes to Config.check (T2's D
// of 1.5 or NaN, negative warmup, a negative loss cap). Decoding never
// panics, a recipe has one encoding —
// every accepted one re-encodes to its own bytes — and NewFollower over a
// 6-group task builds a follower or refuses, never panics.
func FuzzRecipe(f *testing.F) {
	valid := func(m Method, dt tensor.DType) recipe {
		return recipe{cfg: Config{Method: m, BatchSize: 8, MicrobatchSize: 2, T1K: 12, T2D: 0.3,
			WarmupEpochs: 1, RecomputeSegments: 2, LossCap: 1e6, FaultTolerant: m == PipeDream},
			stageOf: []int{0, 0, 1, 1, 2, 2}, dtype: dt}
	}
	for _, m := range []Method{GPipe, PipeDream, PipeMare} {
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			f.Add(valid(m, dt).encode())
		}
	}
	hog := valid(PipeDream, tensor.Float64)
	hog.cfg.RecomputeSegments, hog.cfg.Seed = 0, 11
	hog.cfg.Hogwild = &pipeline.Hogwild{TauMax: 6, MeanScale: 0.8}
	f.Add(hog.encode())
	b := hog.encode()
	f.Add(b[:len(b)-5])
	for _, mut := range []func(*recipe){
		func(r *recipe) { r.cfg.Method = 7 },
		func(r *recipe) { r.dtype = 5 },
		func(r *recipe) { r.stageOf = []int{0, 1, 0, 1, 2, 2} },
		func(r *recipe) { r.stageOf = []int{0, 0, 2, 2, 3, 3} },
		func(r *recipe) { r.stageOf = []int{0, 1, 2, 3} },
		func(r *recipe) { r.cfg.MicrobatchSize = 3 },
		func(r *recipe) { r.cfg.T2D = 1.5 },
		func(r *recipe) { r.cfg.T2D = math.NaN() },
		func(r *recipe) { r.cfg.WarmupEpochs = -1 },
		func(r *recipe) { r.cfg.LossCap = -1 },
	} {
		r := valid(PipeMare, tensor.Float64)
		mut(&r)
		f.Add(r.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRecipe(data)
		if err != nil {
			return
		}
		if got := r.encode(); !bytes.Equal(got, data) {
			t.Fatalf("recipe %x re-encodes to %x", data, got)
		}
		task := newProbeTask(6, 64)
		NewFollower(task, &countingOptimizer{ps: task.params}, optim.Constant(0.1), nil, nil,
			transport.Spec{Replica: 1, Replicas: 2, Stages: 3, Recipe: data})
	})
}
