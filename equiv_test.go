package pipemare_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/engine"
	"pipemare/internal/engine/concurrent"
	"pipemare/internal/faults"
	"pipemare/internal/leakcheck"
	"pipemare/internal/model"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
	"pipemare/internal/transport"
)

// The equivalence harness. Every engine, worker count, replica count,
// transport, dtype, partition, stream cut, trace setting and membership
// change must retrace the serial Reference curve bit for bit. TestEquivalence runs that
// contract as cells TestEquivalence/<recipe>/<placement>: a recipe is a
// task with its options and the outcome its Reference curve must show, a
// placement is how a run executes, and each cell trains the recipe under
// the placement and compares the curve with the recipe's Reference
// curve, trained once per test process. A placement may carry a
// membership script — faults on follower links, a joiner, straggler
// demotion — and its cell must then also reach the end state the script
// names, or the error it names. Select cells with -run, e.g.
//
//	go test -run '^TestEquivalence$/^dnn-all$/^R2-' .
//
// A -run that reaches TestEquivalence but no cell fails it.

// recipe is a task, its options and what its Reference curve shows.
type recipe struct {
	name   string
	build  func() pipemare.Task
	reseed func() pipemare.Task // the model from another seed, for loop-R2-reseeded
	opts   []pipemare.Option
	epochs int
	// diverges is the epoch the Reference curve diverges in, its last;
	// 0: it must not diverge, and records every epoch.
	diverges int
	stages   int    // the P the trainer must cut, when set
	f64      string // a float32 twin's float64 recipe, whose curve its own must differ from
	cells    string // the placements, space-separated
}

// placement is how a cell runs its recipe.
type placement struct {
	engine   func() pipemare.Engine // each in-process replica's engine; nil: Reference
	replicas int                    // WithReplicas; 0: not set, one replica
	loopback bool                   // replicas 2..R are followers behind the loopback wire
	workers  func() pipemare.Engine // a loopback follower's engine; nil: Reference
	reseeded bool                   // a loopback follower builds the recipe's reseed model
	cost     bool                   // PartitionCost, against the Reference curve under it
	ckpt     int                    // checkpoint cadence in minibatches, cutting the streams
	traced   bool
	jitter   uint64      // seed of the jitter around the engine; 0: none
	epochs   int         // a checked prefix of the recipe's epochs; 0: all
	script   *membership // nil: no membership change
}

// membership is a placement's membership script and the end state the
// run must reach under it. Follower n is replica n, behind loopback link
// n−1.
type membership struct {
	links     map[int][]faults.Rule // rules on the leader's end of follower links, by link
	worker    []faults.Rule         // rules on follower 1's end of its link
	ft        bool                  // WithFaultTolerance
	joinAt    int                   // a joiner parked for this step (WithJoinAt); 0: none
	heartbeat time.Duration         // WithHeartbeat; 0: not set
	// demote sets WithElastic, WithHeartbeat(20ms) unless heartbeat is
	// set, and WithStragglerDemotion(2), and pauses 250 ms after epoch 1,
	// so that a demoted member's drain ends before epoch 2 begins: the
	// scripts hold a reply 100 ms (a delay, or a hang under a 100 ms
	// liveness window), 60 ms past the demotion.
	demote bool

	active           int    // replicas at the end; 0: R
	joins, demotions int    // ElasticStats at the end
	failed           []int  // followers whose serve loop must end in an error; every other ends nil
	pids             []int  // a traced run's members that must own their tracks
	writes           int    // checkpoint writes; 0: not checked
	err              string // the run must fail naming this, instead of retracing the curve
}

func (m *membership) options() []pipemare.Option {
	var opts []pipemare.Option
	if m.ft {
		opts = append(opts, pipemare.WithFaultTolerance())
	}
	if m.joinAt > 0 || m.demote {
		opts = append(opts, pipemare.WithElastic())
	}
	if m.demote {
		opts = append(opts, pipemare.WithHeartbeat(20*time.Millisecond), pipemare.WithStragglerDemotion(2),
			pipemare.WithObserver(func(epochs int, run *pipemare.Run) {
				if epochs == 1 {
					time.Sleep(250 * time.Millisecond)
				}
			}))
	}
	if m.heartbeat > 0 {
		opts = append(opts, pipemare.WithHeartbeat(m.heartbeat))
	}
	return opts
}

func concEngine(w int) func() pipemare.Engine {
	return func() pipemare.Engine { return concurrent.New(w) }
}

// placements names every placement a recipe may list. "conc" is the
// concurrent engine at its default W, GOMAXPROCS; "Rr-inner" runs r
// replicas in process, "loop-Rr-inner" r−1 of them behind the loopback
// wire (a concurrent leader's followers run W = 2).
var placements = func() map[string]placement {
	ps := map[string]placement{
		"conc":              {engine: concEngine(0)},
		"loop-R2-reseeded":  {replicas: 2, loopback: true, reseeded: true, epochs: 2},
		"trace-ref":         {traced: true},
		"trace-W2":          {traced: true, engine: concEngine(2)},
		"trace-R2-ref":      {traced: true, replicas: 2},
		"trace-loop-R2-ref": {traced: true, replicas: 2, loopback: true},
		"jitter-W2":         {engine: concEngine(2), jitter: 1},
		"jitter-R2-W2":      {replicas: 2, engine: concEngine(2), jitter: 2},
		"jitter-W4":         {engine: concEngine(4), jitter: 3},
		"jitter-R2-W4":      {replicas: 2, engine: concEngine(4), jitter: 4},
	}
	for _, w := range []int{1, 2, 3, 4, 8, 27} {
		ps[fmt.Sprint("W", w)] = placement{engine: concEngine(w)}
		ps[fmt.Sprint("cost-W", w)] = placement{engine: concEngine(w), cost: true}
		ps[fmt.Sprint("ckpt3-W", w)] = placement{engine: concEngine(w), ckpt: 3}
	}
	for _, r := range []int{1, 2, 4} {
		ps[fmt.Sprintf("R%d-ref", r)] = placement{replicas: r}
		ps[fmt.Sprintf("R%d-conc", r)] = placement{replicas: r, engine: concEngine(0)}
		for _, w := range []int{1, 2} {
			ps[fmt.Sprintf("R%d-conc-W%d", r, w)] = placement{replicas: r, engine: concEngine(w)}
		}
		if r > 1 {
			ps[fmt.Sprintf("loop-R%d-ref", r)] = placement{replicas: r, loopback: true}
			ps[fmt.Sprintf("loop-R%d-conc", r)] = placement{replicas: r, loopback: true,
				engine: concEngine(0), workers: concEngine(2)}
		}
	}
	maps.Copy(ps, ftPlacements)
	return ps
}()

// ftPlacements are the quad-ft recipe's placements, each a membership
// script over loopback followers. ftCells names those TestEquivalence runs,
// in run order; ftTests lists the rest by the test that runs them, each
// with its subtest name: the crash, churn and chunk-0 cells keep the names
// of the tests they were written as.
var ftPlacements, ftCells, ftTests = func() (map[string]placement, string, map[string][][2]string) {
	ps := map[string]placement{}
	var names []string
	tests := map[string][][2]string{}
	// add adds a cell; under "Test/sub" it runs as that test's subtest sub,
	// not under TestEquivalence.
	add := func(name, under string, r int, p placement, m membership) {
		p.replicas, p.loopback, p.script = r, true, &m
		ps[name] = p
		if test, sub, ok := strings.Cut(under, "/"); ok {
			tests[test] = append(tests[test], [2]string{sub, name})
		} else {
			names = append(names, name)
		}
	}
	on := func(dir faults.Dir, typ byte, nth int, op faults.Op) faults.Rule {
		return faults.Rule{Dir: dir, Type: typ, Nth: nth, Op: op}
	}
	// A healthy follower's first chunk reply, held 100 ms: five 20 ms
	// demotion windows.
	straggle := faults.Rule{Dir: faults.Recv, Type: transport.MsgChunkDone, Nth: 1, Op: faults.Delay, Delay: 100 * time.Millisecond}

	// Follower 2's link dies on its 6th chunk (epoch 2, minibatch 2): it
	// is evicted, the minibatch replays over two, and the curve is a fresh
	// smaller run's.
	add("evict", "", 3, placement{ckpt: 1}, membership{ft: true, active: 2, failed: []int{2}, writes: 16,
		links: map[int][]faults.Rule{1: {on(faults.Send, transport.MsgRunChunk, 6, faults.Kill)}}})
	// Follower 1's link dies at the 2nd message of each type the commit
	// sends, or as the leader reads its 2nd chunk-0 prefix (follower 1
	// holds chunk 0). The one-message stage step is cut three ways: as the
	// follower receives it, before it scales (scale); as the leader sends
	// it (step); as the follower acks it, after it stepped (finish). With
	// fault tolerance each is an eviction on the curve — a death up to
	// prepare replays the minibatch, a later one has the leader re-step
	// the dead shard. Without it each is an error naming the replica,
	// whose moment shard died with it.
	for _, c := range []struct {
		name     string
		rule     faults.Rule
		follower bool // the rule runs on the follower's end
	}{
		{"scatter", on(faults.Send, transport.MsgSetGrads, 2, faults.Kill), false},
		{"prepare", on(faults.Send, transport.MsgPrepare, 2, faults.Kill), false},
		{"scale", on(faults.Recv, transport.MsgStep, 2, faults.Kill), true},
		{"step", on(faults.Send, transport.MsgStep, 2, faults.Kill), false},
		{"finish", on(faults.Recv, transport.MsgStep, 2, faults.KillReply), true},
		{"gather", on(faults.Send, transport.MsgGetState, 2, faults.Kill), false},
		{"import", on(faults.Send, transport.MsgImport, 2, faults.Kill), false},
		{"chunk-0", on(faults.Recv, transport.MsgChunkDone, 2, faults.Kill), false},
	} {
		for _, r := range []int{3, 2} {
			m := membership{ft: true, active: r - 1, failed: []int{1}}
			if c.follower {
				m.worker = []faults.Rule{c.rule}
			} else {
				m.links = map[int][]faults.Rule{0: {c.rule}}
			}
			name, under, rs := fmt.Sprintf("crash-%s-R%d", c.name, r), "TestCrashMidCollectiveNeverDeadlocks/sharded/"+c.name, ""
			if r != 3 {
				rs = "/R=2"
			}
			add(name, under+rs, r, placement{epochs: 2}, m)
			m.ft, m.err = false, "replica 1"
			add(name+"-noft", under+"/no-ft"+rs, r, placement{epochs: 2}, m)
		}
	}
	// The leader's read of follower 1's 3rd chunk reply hangs: only the
	// liveness window of ten 10 ms heartbeats sees it, and evicts.
	add("hung", "", 2, placement{epochs: 2}, membership{ft: true, heartbeat: 10 * time.Millisecond, active: 1, failed: []int{1},
		links: map[int][]faults.Rule{0: {on(faults.Recv, transport.MsgChunkDone, 3, faults.Hang)}}})

	// A third replica joins at step 2 by live handoff; the group grows to
	// three on the curve.
	add("join", "", 2, placement{}, membership{joinAt: 2, active: 3, joins: 1})
	// A straggling follower is demoted mid-minibatch, the minibatch replays
	// over two, its late reply drains, and it rejoins at an epoch-2
	// boundary. The tail follower, or — traced — follower 1, so the
	// survivor above it shifts down a position and the rejoined member
	// takes another: each keeps tracks of its own.
	add("demote-tail", "", 3, placement{}, membership{demote: true, active: 3, joins: 1, demotions: 1,
		links: map[int][]faults.Rule{1: {straggle}}})
	add("demote-non-tail-traced", "", 3, placement{traced: true}, membership{demote: true, active: 3, joins: 1, demotions: 1,
		pids: []int{1, 2}, links: map[int][]faults.Rule{0: {straggle}}})
	// A hung follower is demoted by the heartbeat windows alone; its drain
	// then hits the liveness window and latches the timeout, and the next
	// boundary drops the standby: R = 2 to the end, no rejoin.
	add("demote-hung", "", 3, placement{}, membership{demote: true, heartbeat: 10 * time.Millisecond,
		active: 2, demotions: 1, failed: []int{2},
		links: map[int][]faults.Rule{1: {on(faults.Recv, transport.MsgChunkDone, 1, faults.Hang)}}})
	// A follower evicted at its 2nd chunk while a joiner is parked for
	// step 8: the group shrinks to two, then grows back to three with the
	// joiner as a fourth member, which traced must not share the survivor's
	// tracks.
	evictJoin := func(link int) membership {
		return membership{ft: true, joinAt: 8, active: 3, joins: 1, failed: []int{link + 1},
			links: map[int][]faults.Rule{link: {on(faults.Send, transport.MsgRunChunk, 2, faults.Kill)}}}
	}
	add("churn-evict-join-tail", "TestChurnCompositions/evict-during-pending-join/tail", 3, placement{}, evictJoin(1))
	m := evictJoin(0)
	m.pids = []int{2, 3}
	add("churn-evict-join-non-tail-traced", "TestChurnCompositions/evict-during-pending-join/non-tail-traced", 3, placement{traced: true}, m)
	// A join admitted at a boundary that also writes a checkpoint: it runs
	// after the write.
	add("churn-join-ckpt", "TestChurnCompositions/join-during-checkpoint", 2, placement{ckpt: 1}, membership{joinAt: 2, active: 3, joins: 1, writes: 16})
	// Demotion, rejoin and eviction chain on one link: the rejoined member
	// dies on its first reply.
	add("churn-demote-kill", "TestChurnCompositions/demotion-racing-fatal", 3, placement{}, membership{demote: true, active: 2, joins: 1, demotions: 1, failed: []int{2},
		links: map[int][]faults.Rule{1: {straggle, on(faults.Recv, transport.MsgChunkDone, 2, faults.Kill)}}})
	// Chunk 0 — accumulated in place, shipped as one prefix — moves from
	// member to member on both inner engines. Follower 1 holds it first and
	// straggles: demoted, the replay gives chunk 0 to follower 2, and
	// follower 1's late chunk-0 run drains. Follower 1 rejoins at the tail
	// at an epoch-2 boundary; follower 2, holding chunk 0 again, is killed
	// on its 8th reply (epoch 2's third minibatch, counting the replay),
	// and the replay hands chunk 0 back to follower 1. The curve holds only
	// if the drained chunk-0 run left its accumulators zero.
	chunk0 := membership{demote: true, active: 2, joins: 1, demotions: 1, failed: []int{2},
		links: map[int][]faults.Rule{0: {straggle}, 1: {on(faults.Recv, transport.MsgChunkDone, 8, faults.Kill)}}}
	add("chunk0-ref", "TestChunkZeroHolderChurn/reference", 3, placement{}, chunk0)
	add("chunk0-conc", "TestChunkZeroHolderChurn/concurrent", 3, placement{engine: concEngine(0), workers: concEngine(2)}, chunk0)
	return ps, strings.Join(names, " "), tests
}()

// withOpts returns opts followed by extra, in a slice of its own.
func withOpts(opts []pipemare.Option, extra ...pipemare.Option) []pipemare.Option {
	return append(append([]pipemare.Option{}, opts...), extra...)
}

func methodOpts(m pipemare.Method) []pipemare.Option {
	opts := []pipemare.Option{pipemare.WithMethod(m), pipemare.WithSeed(11)}
	if m == pipemare.PipeMare {
		// Enable every technique so the whole install/commit surface is
		// compared: T1, T2, T3 warmup, clipping and recompute.
		opts = append(opts, pipemare.WithT1(12), pipemare.WithT2(0.3),
			pipemare.WithT3(1), pipemare.WithClipNorm(2), pipemare.WithRecompute(2))
	}
	return opts
}

func images(train int, seed int64) *data.Images {
	return data.NewImages(data.ImagesConfig{Classes: 4, C: 1, H: 4, W: 4,
		Train: train, Test: 32, Noise: 0.4, Seed: seed})
}

func resMLP(ds *data.Images, hidden, blocks int, seed int64) func() pipemare.Task {
	return func() pipemare.Task { return model.NewResNetMLP(ds, hidden, blocks, seed) }
}

// xfmrRecipe is the stage-split translation transformer (P = 8, boundaries
// inside attention blocks) under AdamW and warmup-invsqrt, every PipeMare
// technique on.
func xfmrRecipe() (func() pipemare.Task, []pipemare.Option) {
	ds := data.NewTranslation(data.TranslationConfig{Vocab: 11, SrcLen: 5,
		Train: 64, Test: 16, Seed: 2})
	build := func() pipemare.Task {
		return model.NewTranslation(ds, model.TransformerConfig{
			Dim: 16, Heads: 2, EncLayers: 1, DecLayers: 1, Seed: 4})
	}
	return build, withOpts(methodOpts(pipemare.PipeMare),
		pipemare.WithStages(8),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4),
		pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
			return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
		}),
		pipemare.WithSchedule(optim.WarmupInvSqrt{Peak: 3e-3, Init: 1e-7, Warmup: 20}))
}

// recipes is the harness's table. The quadratic task is the smallest (one
// op per weight group); the DNNs split ResNet MLPs into stages.
func recipes() []recipe {
	steady := pipemare.WithSchedule(optim.Constant(0.05))
	quad := func(groups, train, test int, seed int64) func() pipemare.Task {
		return func() pipemare.Task { return newQuadTask(groups, train, test, seed) }
	}
	var rs []recipe
	for _, m := range []pipemare.Method{pipemare.GPipe, pipemare.PipeDream, pipemare.PipeMare} {
		name := strings.ToLower(m.String())
		rs = append(rs,
			recipe{name: "quad-" + name, build: quad(6, 64, 16, 5), epochs: 6, cells: "conc",
				opts: withOpts(methodOpts(m), pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), steady)},
			recipe{name: "dnn-" + name, build: resMLP(images(64, 1), 8, 4, 3), epochs: 3, cells: "conc",
				opts: withOpts(methodOpts(m), pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4), steady)})
		if m != pipemare.PipeDream {
			twin := rs[len(rs)-1]
			twin.name, twin.f64 = twin.name+"-f32", twin.name
			twin.opts = withOpts(twin.opts, pipemare.WithDType(pipemare.Float32))
			rs = append(rs, twin)
		}
		if m != pipemare.GPipe {
			// N ≫ P microbatches in flight per minibatch, the recompute climb
			// on every chain: each stage interleaves the slots of many.
			rs = append(rs, recipe{name: "stress-" + name, build: resMLP(images(96, 6), 10, 4, 8), epochs: 3, cells: "conc",
				opts: withOpts(methodOpts(m), pipemare.WithStages(4), pipemare.WithBatchSize(32),
					pipemare.WithMicrobatches(16), pipemare.WithRecompute(2), steady)})
		}
	}

	// Streams cut short by a checkpoint cadence (3) that does not divide the
	// epoch (4 minibatches), across a T3 warm-up epoch, the clip fold, the
	// recompute climb, GPipe, and both sides of the in-flight cap min(P, N).
	cuts := "ckpt3-W1 ckpt3-W2 ckpt3-W4"
	for _, c := range []struct {
		name string
		opts []pipemare.Option
	}{
		{"pipemare-n4", withOpts(methodOpts(pipemare.PipeMare), pipemare.WithMicrobatches(4))},
		{"pipemare-n8", []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithT2(0.3), pipemare.WithMicrobatches(8)}},
		{"pipedream-n2", []pipemare.Option{pipemare.WithMethod(pipemare.PipeDream), pipemare.WithClipNorm(2), pipemare.WithMicrobatches(2)}},
		{"gpipe-n4", []pipemare.Option{pipemare.WithMethod(pipemare.GPipe), pipemare.WithClipNorm(2), pipemare.WithMicrobatches(4)}},
	} {
		rs = append(rs, recipe{name: "cuts-" + c.name, build: quad(4, 32, 8, 5), epochs: 4, cells: cuts,
			opts: withOpts(c.opts, pipemare.WithSeed(11), pipemare.WithBatchSize(8), steady)})
	}

	xfmr, xfmrOpts := xfmrRecipe()
	fineOpts := []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithStages(0),
		pipemare.WithT1(12), pipemare.WithT2(0.3), pipemare.WithRecompute(2),
		pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4), pipemare.WithSeed(13)}
	diverging := resMLP(images(96, 8), 10, 3, 9)
	return append(rs,
		// Four minibatches of N = 4 per epoch: the 25th microbatch, whose loss
		// is NaN, opens epoch 2's third minibatch, where the next minibatch's
		// chains may be in flight.
		recipe{name: "quad-badmicro", epochs: 3, diverges: 2, cells: "W1 W2 W4",
			build: func() pipemare.Task { return &badMicroTask{quadTask: newQuadTask(4, 32, 8, 5), at: 25} },
			opts: []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithSeed(11),
				pipemare.WithT1(12), pipemare.WithT2(0.3), pipemare.WithT3(1), pipemare.WithClipNorm(2),
				pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), steady}},
		recipe{name: "quad-diverge", build: quad(4, 32, 8, 7), epochs: 4, diverges: 1, cells: "conc loop-R2-ref",
			opts: []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare),
				pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4),
				pipemare.WithSeed(2), pipemare.WithLossCap(10),
				pipemare.WithSchedule(optim.Constant(5))}}, // absurd rate: diverges
		// The membership scripts' recipe: four minibatches an epoch, eight
		// microbatches so three replicas each own a chunk.
		recipe{name: "quad-ft", build: quad(4, 32, 8, 21), epochs: 4, opts: ftBase(), cells: ftCells},
		recipe{name: "quad-replicas", build: quad(4, 32, 8, 31), epochs: 3, cells: "R2-ref R2-conc-W2",
			opts: withOpts(methodOpts(pipemare.PipeMare), pipemare.WithBatchSize(8), pipemare.WithMicrobatches(4), steady)},
		recipe{name: "dnn-p4", build: resMLP(images(64, 1), 8, 4, 3), epochs: 3, stages: 4,
			cells: "W1 W2 W4 cost-W1 cost-W2 cost-W4",
			opts: withOpts(methodOpts(pipemare.PipeMare), pipemare.WithStages(4),
				pipemare.WithBatchSize(16), pipemare.WithMicrobatches(4), steady)},
		recipe{name: "dnn-all", build: resMLP(images(96, 6), 10, 4, 8), reseed: resMLP(images(96, 6), 10, 4, 9),
			epochs: 3, stages: 4,
			cells: "R1-ref R1-conc R1-conc-W1 R1-conc-W2 R2-ref R2-conc R2-conc-W1 R2-conc-W2 " +
				"R4-ref R4-conc R4-conc-W1 R4-conc-W2 loop-R2-ref loop-R2-conc loop-R4-ref loop-R4-conc " +
				"loop-R2-reseeded trace-ref trace-W2 trace-R2-ref trace-loop-R2-ref " +
				"jitter-W2 jitter-W4 jitter-R2-W2 jitter-R2-W4",
			opts: withOpts(methodOpts(pipemare.PipeMare), pipemare.WithStages(4),
				pipemare.WithBatchSize(32), pipemare.WithMicrobatches(8), steady)},
		recipe{name: "dnn-diverge", build: diverging, epochs: 4, diverges: 1, stages: 4,
			cells: "conc cost-W2 R1-ref R1-conc R2-ref R2-conc R4-ref R4-conc",
			opts: []pipemare.Option{pipemare.WithMethod(pipemare.PipeMare), pipemare.WithStages(4),
				pipemare.WithBatchSize(16), pipemare.WithMicrobatches(8),
				pipemare.WithSeed(4), pipemare.WithLossCap(15), pipemare.WithRecompute(2),
				pipemare.WithSchedule(optim.Constant(8))}}, // absurd rate: diverges
		// R4: a prefix of one microbatch and three exports to fold after it.
		// At R = 2 the float64 sums land on the same bits whichever of the
		// prefix and the leader's exports the reduce folds first; at R = 4
		// they do not, so this cell pins the reduce's order.
		recipe{name: "xfmr", build: xfmr, opts: xfmrOpts, epochs: 2, stages: 8,
			cells: "conc W1 W2 W4 W8 cost-W1 cost-W2 cost-W4 cost-W8 R2-conc-W2 R4-conc-W2"},
		recipe{name: "xfmr-f32", build: xfmr, opts: withOpts(xfmrOpts, pipemare.WithDType(pipemare.Float32)),
			epochs: 2, stages: 8, f64: "xfmr", cells: "W1 W2 W8 R2-conc-W2 loop-R2-ref"},
		// One stage per weight group, P = 27: the concurrent engine cuts
		// S = min(P, 2W) multi-stage segments of uneven sizes, and the
		// recompute climb re-enters segment 0.
		recipe{name: "fine", build: resMLP(images(64, 3), 8, 12, 5), epochs: 3, stages: 27,
			cells: "W1 W2 W3 W4 W27 jitter-W2 jitter-W4", opts: withOpts(fineOpts, steady)},
		recipe{name: "fine-diverge", build: resMLP(images(64, 3), 8, 12, 5), epochs: 3, diverges: 1, stages: 27,
			cells: "W2", opts: withOpts(fineOpts, pipemare.WithLossCap(15), pipemare.WithSchedule(optim.Constant(8)))},
		// The rate jumps 160-fold at step 4, the first of epoch 2; the loss
		// crosses the cap at microbatch 24, which opens epoch 2's third
		// minibatch, deep in the pipeline (every stage's ring past its first
		// eviction) and with the next minibatch's chains in flight.
		recipe{name: "fine-late-diverge", build: resMLP(images(64, 3), 8, 12, 5), epochs: 4, diverges: 2, stages: 27,
			cells: "W1 W2 W4", opts: withOpts(fineOpts, pipemare.WithLossCap(15),
				pipemare.WithSchedule(optim.StepDecay{Base: 0.05, DropEvery: 4, Factor: 160}))},
	)
}

// refs caches each recipe's Reference curve, by recipe name and partition,
// for the life of the test process; cells run one at a time.
var refs = map[string]*pipemare.Run{}

// reference returns rc's Reference curve — under PartitionCost when cost
// is set — training it and checking what the recipe says it shows the
// first time it is asked for.
func reference(t *testing.T, rc recipe, cost bool) *pipemare.Run {
	t.Helper()
	key := rc.name
	opts := withOpts(rc.opts, pipemare.WithEngine(pipemare.NewReferenceEngine()))
	if cost {
		key += "/cost"
		opts = append(opts, pipemare.WithPartition(pipemare.PartitionCost))
	}
	if ref := refs[key]; ref != nil {
		return ref
	}
	tr, ref := train(t, rc.build, rc.epochs, 1, opts...)
	want := rc.epochs
	if rc.diverges > 0 {
		want = rc.diverges
	}
	if ref.Diverged != (rc.diverges > 0) || ref.Epochs() != want {
		t.Fatalf("%s: the Reference curve recorded %d epochs (diverged %v), want %d (divergence in epoch %d, 0: none)",
			key, ref.Epochs(), ref.Diverged, want, rc.diverges)
	}
	if p := tr.Partition().P; rc.stages != 0 && p != rc.stages {
		t.Fatalf("%s: the trainer cut P = %d stages, want %d", key, p, rc.stages)
	}
	if rc.f64 != "" {
		// A cast that silently never happened would pass every cell vacuously.
		f64 := reference(t, recipeNamed(t, rc.f64), cost)
		if slices.Equal(ref.Loss, f64.Loss) {
			t.Fatalf("%s: the float32 curve is bitwise the float64 one; WithDType did not take effect", key)
		}
	}
	refs[key] = ref
	return ref
}

func recipeNamed(t *testing.T, name string) recipe {
	for _, rc := range recipes() {
		if rc.name == name {
			return rc
		}
	}
	t.Fatalf("no recipe %q", name)
	return recipe{}
}

func TestEquivalence(t *testing.T) {
	cells := 0
	for _, rc := range recipes() {
		t.Run(rc.name, func(t *testing.T) {
			for _, name := range strings.Fields(rc.cells) {
				p, ok := placements[name]
				if !ok {
					t.Fatalf("no placement %q", name)
				}
				t.Run(name, func(t *testing.T) {
					cells++
					p.run(t, rc)
				})
			}
		})
	}
	if cells == 0 {
		t.Fatal("-run selected no TestEquivalence/<recipe>/<placement> cell")
	}
}

// runFTTest runs the quad-ft cells ftTests lists under t's name as t's
// subtests, against the recipe's cached Reference curve.
func runFTTest(t *testing.T) {
	rc := recipeNamed(t, "quad-ft")
	cells := ftTests[t.Name()]
	if len(cells) == 0 {
		t.Fatalf("no quad-ft cell runs under %s", t.Name())
	}
	for _, c := range cells {
		t.Run(c[0], func(t *testing.T) { placements[c[1]].run(t, rc) })
	}
}

// run trains rc under p within 60 s and compares the curve with rc's
// Reference curve, then checks what p promises: R replicas, the end state
// of its membership script, every worker's exit, no goroutine left
// behind, and for a traced run the tracks it must show. It returns the
// run's checkpoint directory, "" when p writes none.
func (p placement) run(t *testing.T, rc recipe) (ckptDir string) {
	baseline := runtime.NumGoroutine()
	epochs := rc.epochs
	if p.epochs > 0 {
		epochs = p.epochs
	}
	r := max(p.replicas, 1)
	m := p.script
	if m == nil {
		m = &membership{}
	}
	eng := pipemare.NewReferenceEngine()
	if p.engine != nil {
		eng = p.engine()
	}
	if p.jitter != 0 {
		eng = jitterEngine{eng, p.jitter}
	}
	opts := withOpts(rc.opts, pipemare.WithEngine(eng))
	if p.replicas > 0 {
		opts = append(opts, pipemare.WithReplicas(r))
	}
	if p.cost {
		opts = append(opts, pipemare.WithPartition(pipemare.PartitionCost))
	}
	if p.ckpt > 0 {
		ckptDir = t.TempDir()
		opts = append(opts, pipemare.WithCheckpoint(ckptDir, p.ckpt))
	}
	var rec *pipemare.TraceRecorder
	if p.traced {
		rec = pipemare.NewTraceRecorder()
		opts = append(opts, pipemare.WithTrace(rec))
	}
	opts = append(opts, m.options()...)
	workerOpts := func() []pipemare.Option {
		if p.workers == nil {
			return rc.opts
		}
		return withOpts(rc.opts, pipemare.WithEngine(p.workers()))
	}
	var wait func() []error
	if p.loopback {
		build := rc.build
		if p.reseeded {
			build = rc.reseed
		}
		var script *faults.Script
		if m.worker != nil {
			script = faults.NewScript(m.worker...)
		}
		dialers, kill, w := startFaultyWorkers(t, r-1, script, build, workerOpts)
		defer kill()
		wait = w
		for link, rules := range m.links {
			dialers[link] = &faults.Dialer{Inner: dialers[link], Script: faults.NewScript(rules...)}
		}
		opts = append(opts, pipemare.WithTransport(dialers...))
	}
	tr, err := pipemare.New(rc.build(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != r {
		t.Fatalf("trainer owns %d replicas, want %d", tr.Replicas(), r)
	}
	jwait := func() error { return nil }
	if m.joinAt > 0 {
		var jlis pipemare.Listener
		jlis, jwait = startJoiner(t, rc.build, withOpts(workerOpts(), pipemare.WithJoinAt(m.joinAt)))
		acceptAndPark(t, tr, jlis)
	}
	// The one failure no membership change may end in is a hang.
	var got *pipemare.Run
	done := make(chan error, 1)
	go func() {
		run, err := tr.Run(context.Background(), epochs)
		got = run
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the run neither completed nor errored within 60 s")
	}
	switch {
	case m.err != "" && (err == nil || !strings.Contains(err.Error(), m.err)):
		t.Fatalf("run ended in %v, want an error naming %q", err, m.err)
	case m.err == "" && err != nil:
		t.Fatal(err)
	case m.err == "":
		want := r
		if m.active > 0 {
			want = m.active
		}
		if tr.Replicas() != want {
			t.Fatalf("%d replicas at the end, want %d", tr.Replicas(), want)
		}
		joins, demotions, handoffNs := tr.ElasticStats()
		if joins != m.joins || demotions != m.demotions || (joins > 0) != (handoffNs > 0) {
			t.Fatalf("elastic stats (%d joins, %d demotions, %d ns handoff), want %d joins, %d demotions",
				joins, demotions, handoffNs, m.joins, m.demotions)
		}
		if writes, _ := tr.CheckpointStats(); m.writes > 0 && writes != m.writes {
			t.Fatalf("%d checkpoint writes, want %d", writes, m.writes)
		}
	}
	// A run that failed may leave Close a dead link to report.
	if err := tr.Close(); err != nil && m.err == "" {
		t.Fatalf("close: %v", err)
	}
	if err := jwait(); err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if wait != nil {
		for i, err := range wait() {
			if failed := slices.Contains(m.failed, i+1); failed != (err != nil) {
				t.Fatalf("follower %d's serve loop ended in %v; want an error: %t", i+1, err, failed)
			}
		}
	}
	if n := leakcheck.Settled(baseline, 10*time.Second); n > baseline {
		t.Fatalf("%d goroutines after close, baseline %d: one leaked", n, baseline)
	}
	if m.err != "" {
		return ckptDir
	}
	ref := reference(t, rc, p.cost)
	if epochs < ref.Epochs() {
		ref = sliceRun(ref, 0, epochs)
		ref.Diverged = false
	}
	requireIdentical(t, t.Name(), ref, got)
	if rec == nil {
		return ckptDir
	}
	// Only the leader computes in the recorder's process; a remote
	// replica shows up as wire traffic instead.
	computing := r
	if p.loopback {
		computing = 1
	}
	requireComputeTraced(t, rec, computing)
	if r == 1 {
		requireWorkerTracksOnly(t, rec)
	}
	if rep := pipemare.BuildTraceReport(rec, nil); p.loopback && (rep.WireNs <= 0 || rep.BytesMoved <= 0) {
		t.Fatalf("loopback trace recorded no wire traffic (%d ns, %d bytes)", rep.WireNs, rep.BytesMoved)
	}
	requireOwnTracks(t, rec, m.pids...)
	return ckptDir
}

// sliceRun copies epochs [lo, hi) of a recorded curve, so a resumed
// run's entries can be compared against the matching reference window
// with requireIdentical.
func sliceRun(r *pipemare.Run, lo, hi int) *pipemare.Run {
	return &pipemare.Run{Loss: r.Loss[lo:hi], Metric: r.Metric[lo:hi],
		ParamNorm: r.ParamNorm[lo:hi], Diverged: r.Diverged}
}

// train trains a fresh task under the given options and returns the
// trainer and its curve, asserting the trainer really owns wantReplicas
// replicas (so a silently single-replica run cannot fake an equivalence
// pass).
func train(t *testing.T, build func() pipemare.Task, epochs, wantReplicas int, opts ...pipemare.Option) (*pipemare.Trainer, *pipemare.Run) {
	t.Helper()
	tr, err := pipemare.New(build(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Replicas() != wantReplicas {
		t.Fatalf("trainer owns %d replicas, want %d", tr.Replicas(), wantReplicas)
	}
	r, err := tr.Run(context.Background(), epochs)
	if err != nil {
		t.Fatal(err)
	}
	return tr, r
}

// runCurve is train's curve.
func runCurve(t *testing.T, build func() pipemare.Task, epochs, wantReplicas int, opts ...pipemare.Option) *pipemare.Run {
	t.Helper()
	_, r := train(t, build, epochs, wantReplicas, opts...)
	return r
}

// requireIdentical asserts two curves match bit for bit: no engine,
// replica count, wire or trace setting may perturb a single
// floating-point operation.
func requireIdentical(t *testing.T, name string, ref, got *pipemare.Run) {
	t.Helper()
	if ref.Epochs() != got.Epochs() || ref.Diverged != got.Diverged {
		t.Fatalf("%s: curves differ in shape: reference %d epochs (diverged=%v), got %d epochs (diverged=%v)",
			name, ref.Epochs(), ref.Diverged, got.Epochs(), got.Diverged)
	}
	for e := 0; e < ref.Epochs(); e++ {
		if ref.Loss[e] != got.Loss[e] {
			t.Fatalf("%s epoch %d: loss %v (reference) != %v", name, e+1, ref.Loss[e], got.Loss[e])
		}
		if ref.Metric[e] != got.Metric[e] {
			t.Fatalf("%s epoch %d: metric %v (reference) != %v", name, e+1, ref.Metric[e], got.Metric[e])
		}
		if ref.ParamNorm[e] != got.ParamNorm[e] {
			t.Fatalf("%s epoch %d: param norm %v (reference) != %v", name, e+1, ref.ParamNorm[e], got.ParamNorm[e])
		}
	}
}

// requireComputeTraced asserts the recorder actually observed the run —
// a tracing hook that silently fell off would otherwise let a traced cell
// pass vacuously.
func requireComputeTraced(t *testing.T, rec *pipemare.TraceRecorder, wantReplicas int) {
	t.Helper()
	rep := pipemare.BuildTraceReport(rec, nil)
	if rep.ComputeNs <= 0 || rep.WorkerTracks == 0 {
		t.Fatalf("trace recorded no compute (%d ns over %d worker tracks)", rep.ComputeNs, rep.WorkerTracks)
	}
	if rep.Replicas != wantReplicas {
		t.Fatalf("trace saw %d replicas computing, want %d", rep.Replicas, wantReplicas)
	}
	if rep.DroppedEvents != 0 {
		t.Fatalf("%d events dropped at track caps", rep.DroppedEvents)
	}
}

// requireWorkerTracksOnly asserts the shape of a traced single-replica
// run: its slots and commit phases land on worker tracks, and it records
// no collective — a group of one moves nothing.
func requireWorkerTracksOnly(t *testing.T, rec *pipemare.TraceRecorder) {
	t.Helper()
	commits := 0
	for _, tk := range rec.Tracks() {
		for _, ev := range tk.Events() {
			switch {
			case tk.Tid == trace.TidControl:
			case tk.Tid >= trace.TidCollectives:
				t.Fatalf("%q on track %d, want only worker and control tracks", ev.Name, tk.Tid)
			case ev.Name == trace.NameCommitPrepare || ev.Name == trace.NameCommitStep:
				commits++
			case ev.Name != trace.NameFwd && ev.Name != trace.NameBwd && ev.Name != trace.NameRecompute:
				t.Fatalf("%q on worker track %d", ev.Name, tk.Tid)
			}
		}
	}
	if commits == 0 {
		t.Fatal("no commit span on a worker track")
	}
}

// requireOwnTracks asserts that a traced run gave each of the members
// pids timelines of its own: a wire track and a collectives track that
// carry events. It also requires that no member recorded more commit
// steps than the leader: a member records one per step it is active
// for, the leader is active for every step, so more means two members
// wrote one member's tracks.
func requireOwnTracks(t *testing.T, rec *pipemare.TraceRecorder, pids ...int) {
	t.Helper()
	seen := map[[2]int]bool{}
	commits := map[int]int{}
	for _, tk := range rec.Tracks() {
		seen[[2]int{tk.Pid, tk.Tid}] = len(tk.Events()) > 0
		for _, ev := range tk.Events() {
			if ev.Name == trace.NameCommitStep {
				commits[tk.Pid]++
			}
		}
	}
	for pid, n := range commits {
		if n > commits[0] {
			t.Fatalf("replica %d recorded %d commit steps, the leader %d: two members share its tracks", pid, n, commits[0])
		}
	}
	for _, pid := range pids {
		if !seen[[2]int{pid, trace.TidCollectives}] || !seen[[2]int{pid, trace.TidWire}] {
			t.Fatalf("replica %d has no collectives or wire events of its own", pid)
		}
	}
}

// jitterEngine is inner with each forward, recompute and backward slot
// held back by a seeded, stage-biased delay: up to 20 µs, and up to 200 µs
// on every third stage (the seed picks which), so chains bunch up behind
// the slow stages and a segment's queue holds several runnable jobs — the
// adversarial form of a simulated pipeline's (1 + 0.2·random()) jitter.
// A delay hashes the seed and the slot, so a seed replays it without a
// lock; it yields to the other workers on the clock, since a sleep this
// short rounds up to the runtime's timer granularity when they idle.
type jitterEngine struct {
	inner pipemare.Engine
	seed  uint64
}

func (e jitterEngine) Name() string { return "jitter/" + e.inner.Name() }

func (e jitterEngine) Stream(ctx context.Context, h engine.Host, mbs [][][]int, c engine.Commit) ([]float64, error) {
	return e.inner.Stream(ctx, jitterHost{h, e.seed}, mbs, c)
}

type jitterHost struct {
	engine.Host
	seed uint64
}

// Tracer passes the host's recorder through, so the engine's spans land
// on the tracks they would without the jitter.
func (h jitterHost) Tracer() (*trace.Recorder, int) { return trace.FromCarrier(h.Host) }

func (h jitterHost) delay(s, stage, kind int) {
	x := h.seed<<40 ^ uint64(s)<<12 ^ uint64(stage)<<2 ^ uint64(kind) // splitmix64 of the slot
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	limit := uint64(20)
	if (uint64(stage)+h.seed)%3 == 0 {
		limit = 200
	}
	d := time.Duration(x%limit) * time.Microsecond
	for start := time.Now(); time.Since(start) < d; {
		runtime.Gosched()
	}
}

func (h jitterHost) StageForward(s, stage int) float64 {
	h.delay(s, stage, 0)
	return h.Host.StageForward(s, stage)
}

func (h jitterHost) StageRecompute(s, stage int) {
	h.delay(s, stage, 1)
	h.Host.StageRecompute(s, stage)
}

func (h jitterHost) StageBackward(s, stage int) {
	h.delay(s, stage, 2)
	h.Host.StageBackward(s, stage)
}

// quadTask is a multi-stage quadratic model: group g holds a small weight
// vector w_g and the loss on sample i is Σ_g ½·λ_g·‖w_g − t_i[g]‖², the
// pipeline analogue of the §3 quadratic stability model. It compiles to
// one op per group, whose forward reads the weights its own stage's slot
// installed and whose backward accumulates λ_g times the residual that
// forward saw — so the task exercises the trainer's weight-version
// machinery exactly like a real network, with as many microbatches in
// flight as the engine keeps.
type quadTask struct {
	groups []pipemare.ParamGroup
	params []*nn.Param
	prog   *nn.Program
	lambda []float64
	train  [][]float64 // train[i][g]: target of group g on sample i
	test   [][]float64

	nTrain, nTest int // ctor args, kept for CloneTask
	seed          int64
}

func newQuadTask(groups, train, test int, seed int64) *quadTask {
	rng := rand.New(rand.NewSource(seed))
	t := &quadTask{prog: &nn.Program{}, nTrain: train, nTest: test, seed: seed}
	for g := 0; g < groups; g++ {
		p := nn.NewParam("q", 2)
		p.Data.SetFlat(0, rng.NormFloat64())
		p.Data.SetFlat(1, rng.NormFloat64())
		t.params = append(t.params, p)
		t.groups = append(t.groups, pipemare.ParamGroup{Name: "q", Params: []*nn.Param{p}})
		t.lambda = append(t.lambda, 0.5+rng.Float64())
		t.prog.Ops = append(t.prog.Ops, quadOp{t, g})
		t.prog.GroupOf = append(t.prog.GroupOf, g)
	}
	gen := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, groups)
			for g := range out[i] {
				out[i][g] = rng.NormFloat64()
			}
		}
		return out
	}
	t.train, t.test = gen(train), gen(test)
	return t
}

func (t *quadTask) Groups() []pipemare.ParamGroup { return t.groups }
func (t *quadTask) NumTrain() int                 { return len(t.train) }
func (t *quadTask) Program() *nn.Program          { return t.prog }

// BindMicro hands the machine the microbatch's sample indices; the ops
// look their targets up themselves.
func (t *quadTask) BindMicro(m *nn.Machine, idx []int) {
	m.Labels = append(m.Labels[:0], idx...)
}

// CloneTask makes quadTask Replicable.
func (t *quadTask) CloneTask() pipemare.Task {
	return newQuadTask(len(t.groups), t.nTrain, t.nTest, t.seed)
}

// addLoss adds group g's share of the mean loss over the indexed samples
// of set to *loss, term by term, and returns the group's mean residuals.
func (t *quadTask) addLoss(loss *float64, g int, set [][]float64, idx []int) (r [2]float64) {
	w := tensor.F64(t.params[g].Data)
	for _, i := range idx {
		d0 := w[0] - set[i][g]
		d1 := w[1] - set[i][g]
		*loss += 0.5 * t.lambda[g] * (d0*d0 + d1*d1) / float64(len(idx))
		r[0] += d0 / float64(len(idx))
		r[1] += d1 / float64(len(idx))
	}
	return r
}

// quadOp is group g's op.
type quadOp struct {
	t *quadTask
	g int
}

// Forward adds the group's loss over the installed forward weights and
// saves the residuals for the backward slot.
func (o quadOp) Forward(m *nn.Machine) {
	r := o.t.addLoss(&m.Loss, o.g, o.t.train, m.Labels)
	saved := m.Tape.NewTensor(2)
	copy(tensor.F64(saved), r[:])
	m.Tape.Push(saved)
}

// Backward accumulates the group's gradient from the saved residuals.
func (o quadOp) Backward(m *nn.Machine) {
	r := tensor.F64(m.Tape.Pop())
	grad := tensor.F64(o.t.params[o.g].Grad)
	grad[0] += o.t.lambda[o.g] * r[0]
	grad[1] += o.t.lambda[o.g] * r[1]
}

// Regs names no register: the op reads its weights and the bound labels.
func (quadOp) Regs() ([]nn.Reg, nn.Reg) { return nil, -1 }

func (t *quadTask) EvalTest() float64 {
	idx := make([]int, len(t.test))
	for i := range idx {
		idx[i] = i
	}
	loss := 0.0
	for g := range t.params {
		t.addLoss(&loss, g, t.test, idx)
	}
	return 100 / (1 + loss)
}

// badMicroTask is a quadTask whose at-th bound microbatch diverges: its
// machine's loss starts at NaN, and every op adds to it. Stage 0 binds
// microbatches in order on every engine, once each without recompute.
type badMicroTask struct {
	*quadTask
	binds, at int
}

func (b *badMicroTask) BindMicro(m *nn.Machine, idx []int) {
	b.quadTask.BindMicro(m, idx)
	if b.binds++; b.binds == b.at {
		m.Loss = math.NaN()
	}
}
