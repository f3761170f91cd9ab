package pipemare_test

import (
	"context"
	"testing"

	"pipemare"
	"pipemare/internal/core"
	"pipemare/internal/data"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/replica"
	"pipemare/internal/transport"
)

// TestWorkerTrainsTheLeadersRecipe pins that a follower is built from its
// leader's hello alone. Each row starts its worker with another value of
// one recipe option than the leader's — the option a follower's
// arithmetic reads (T1's K, T2's D, T3's warmup, N, recompute, the loss
// cap, P, the partition mode, the dtype) — and the run must still train
// the leader's single-replica Reference curve bit for bit: with an
// in-process follower, with the worker dialled over loopback at launch,
// and with it joining an elastic R = 2 run mid-way (the joiner makes the
// run fault-tolerant, which its recipe carries too). The hogwild rows
// train Appendix E's delay rule, which no option sets, at R = 2 — in
// process and over loopback — against R = 1.
func TestWorkerTrainsTheLeadersRecipe(t *testing.T) {
	images := data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: 64, Test: 16, Noise: 0.4, Seed: 3})
	build := func() pipemare.Task { return model.NewResNetMLP(images, 6, 3, 5) }
	// PipeMare with every technique (T1 12, T2 0.3, T3 1 epoch,
	// recompute 2), P = 8 of the 9 groups, N = 4: two epochs train one of
	// them async, and a follower's commit shard holds stages whose τ_fwd
	// exceeds 1 step, where T1 rescales the rate.
	base := append(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithSchedule(optim.Constant(0.05)))
	with := func(opts []pipemare.Option, extra ...pipemare.Option) []pipemare.Option {
		return append(append([]pipemare.Option{}, opts...), extra...)
	}
	fast := with(base, pipemare.WithSchedule(optim.Constant(1.2)))
	const epochs = 2
	for _, row := range []struct {
		name           string
		leader, worker []pipemare.Option
	}{
		{"t2", base, with(base, pipemare.WithT2(0.9))},
		{"t1", base, with(base, pipemare.WithT1(1000))},
		{"microbatches", base, with(base, pipemare.WithMicrobatches(2))},
		{"warmup", base, with(base, pipemare.WithT3(0))},
		{"recompute", base, with(base, pipemare.WithRecompute(0))},
		// At rate 1.2 the first loss above 3 is a follower's microbatch at
		// step 7, after the joiner is in: a follower reading its own cap (or
		// the default) finishes the run the leader's cap ends there.
		{"losscap", with(fast, pipemare.WithLossCap(3)), fast},
		{"stages", base, with(base, pipemare.WithStages(2))},
		{"partition", base, with(base, pipemare.WithPartition(pipemare.PartitionCost))},
		{"dtype", with(base, pipemare.WithDType(pipemare.Float32)), base},
	} {
		ref := runCurve(t, build, epochs, 1, row.leader...)
		if row.name == "losscap" && !ref.Diverged {
			t.Fatal("losscap: the leader's cap must end the reference run, or the row checks nothing")
		}
		t.Run(row.name+"/inprocess", func(t *testing.T) {
			requireIdentical(t, row.name, ref, runCurve(t, build, epochs, 2, with(row.leader, pipemare.WithReplicas(2))...))
		})
		t.Run(row.name+"/launch", func(t *testing.T) {
			dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option { return row.worker })
			tr, err := pipemare.New(build(), with(row.leader, pipemare.WithTransport(dialers...))...)
			if err != nil {
				kill()
				t.Fatal(err)
			}
			got, err := tr.Run(context.Background(), epochs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := wait()[0]; err != nil {
				t.Fatalf("worker: %v", err)
			}
			requireIdentical(t, row.name, ref, got)
		})
		t.Run(row.name+"/join", func(t *testing.T) {
			jlis, jwait := startJoiner(t, build, with(row.worker, pipemare.WithJoinAt(2)))
			tr, err := pipemare.New(build(), with(row.leader, pipemare.WithReplicas(2), pipemare.WithElastic())...)
			if err != nil {
				t.Fatal(err)
			}
			acceptAndPark(t, tr, jlis)
			got, err := tr.Run(context.Background(), epochs)
			if err != nil {
				t.Fatal(err)
			}
			if joins, _, _ := tr.ElasticStats(); joins != 1 {
				t.Fatalf("%d joins, want 1", joins)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := jwait(); err != nil {
				t.Fatalf("joiner: %v", err)
			}
			requireIdentical(t, row.name, ref, got)
		})
	}

	// Appendix E: PipeDream under drawn delays, T1 rescheduling by their
	// means, the draws keyed by the seed.
	hogwild := func(t *testing.T, replicas int, followers func(transport.Spec) (replica.Member, error)) *pipemare.Run {
		t.Helper()
		task := build()
		var ps []*nn.Param
		for _, g := range task.Groups() {
			ps = append(ps, g.Params...)
		}
		tr, err := core.New(task, optim.NewSGD(ps, 0.9, 0), optim.Constant(0.05), core.Config{
			Method: core.PipeDream, Stages: 4, BatchSize: 16, MicrobatchSize: 4, T1K: 12, Seed: 11,
			Hogwild:  &pipeline.Hogwild{TauMax: 6, MeanScale: 0.8},
			Replicas: replicas, Followers: followers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		run, err := tr.Run(context.Background(), epochs)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	ref := hogwild(t, 1, nil)
	t.Run("hogwild/inprocess", func(t *testing.T) {
		requireIdentical(t, "hogwild", ref, hogwild(t, 2, nil))
	})
	t.Run("hogwild/launch", func(t *testing.T) {
		// The schedule is the worker's own: it has no encoding.
		dialers, kill, wait := startWorkers(t, 1, build, func() []pipemare.Option {
			return []pipemare.Option{pipemare.WithSchedule(optim.Constant(0.05))}
		})
		defer kill()
		got := hogwild(t, 2, func(spec transport.Spec) (replica.Member, error) {
			conn, err := dialers[0].Dial(context.Background())
			if err != nil {
				return nil, err
			}
			return transport.NewRemoteMember(context.Background(), conn, spec)
		})
		if err := wait()[0]; err != nil {
			t.Fatalf("worker: %v", err)
		}
		requireIdentical(t, "hogwild", ref, got)
	})
}
