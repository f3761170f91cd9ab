package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pipemare"
	"pipemare/internal/data"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/pipeline"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// The probes fill the A rows: the benchmark calls each layer's exported
// functions directly, on the workload's own shapes and state, each call
// under its own span. They time a layer alone, with nothing else running,
// so they say what a layer costs, not how much of an epoch waits for it —
// that is what the traced pass is for.

// probeSamples is how many measurements a probe takes; it reports their
// median.
const probeSamples = 5

// sample measures fn: probeSamples measurements of reps back-to-back
// calls, one span each, and returns the median seconds per call. Quick
// mode makes one call.
func (r *runner) sample(name string, reps int, fn func()) float64 {
	samples := probeSamples
	if r.cfg.quick {
		samples, reps = 1, 1
	}
	secs := make([]float64, samples)
	for i := range secs {
		took := r.spans.time(name, func() {
			for j := 0; j < reps; j++ {
				fn()
			}
		})
		secs[i] = took.Seconds() / float64(reps)
	}
	return median(secs)
}

// stageTask is the part of core.StageTask the nn probe drives.
type stageTask interface {
	Program() *nn.Program
	BindMicro(m *nn.Machine, idx []int)
}

func randTensor(rng *rand.Rand, dt tensor.DType, shape ...int) *tensor.Tensor {
	t := tensor.NewOf(dt, shape...)
	for i, n := 0, t.Size(); i < n; i++ {
		t.SetFlat(i, rng.NormFloat64())
	}
	return t
}

func (r *runner) probes(m metricSet, s *session) (err error) {
	r.spans.time("probes", func() {
		// A private task in the workload's dtype: the probes run real
		// backward passes and optimizer steps, which must not touch the
		// trainer the other passes measure.
		task := r.w.newTask()
		if r.w.dtype != pipemare.Float64 {
			task.(pipemare.DTypeSettable).SetDType(r.w.dtype)
		}
		r.probeTensor(m)
		r.probeNN(m, task, s.tr)
		r.probeModelData(m, task, s.tr)
		r.probeOptimPipeline(m, task, s.tr)
		if err = r.probeCheckpoint(m, s.tr); err != nil {
			return
		}
		err = r.probeTransport(m, s.tr)
	})
	if err != nil {
		return fmt.Errorf("%s: probes: %w", r.w.name, err)
	}
	return nil
}

func (r *runner) probeTensor(m metricSet) {
	w, dt := r.w, r.w.dtype
	rng := rand.New(rand.NewSource(r.cfg.seed))
	x := randTensor(rng, dt, w.rows, w.in)   // activations
	wt := randTensor(rng, dt, w.in, w.out)   // weights
	dy := randTensor(rng, dt, w.rows, w.out) // output gradient
	y := tensor.NewOf(dt, w.rows, w.out)
	dw := tensor.NewOf(dt, w.in, w.out)
	dx := tensor.NewOf(dt, w.rows, w.in)
	gflops := func(secs float64) float64 { return 2 * float64(w.rows*w.in*w.out) / secs / 1e9 }
	// MatMulInto and MatMulT1Into accumulate into their destination; the
	// sums stay finite over the few hundred calls made here.
	m["tensor.matmul_gflops"] = gflops(r.sample("tensor.MatMulInto", 50, func() { tensor.MatMulInto(y, x, wt) }))
	m["tensor.matmul_t1_gflops"] = gflops(r.sample("tensor.MatMulT1Into", 50, func() { tensor.MatMulT1Into(dw, x, dy) }))
	m["tensor.matmul_t2_gflops"] = gflops(r.sample("tensor.MatMulT2Into", 50, func() { tensor.MatMulT2Into(dx, dy, wt) }))

	// The residual MLP's whole matmul: under directMaxWork, so the
	// unpacked mmDirect loops, never the blocked kernels.
	sa, sb := randTensor(rng, dt, 8, 16), randTensor(rng, dt, 16, 16)
	sd := tensor.NewOf(dt, 8, 16)
	m["tensor.matmul_small_ns"] = 1e9 * r.sample("tensor.MatMulInto/8x16x16", 2000, func() { tensor.MatMulInto(sd, sa, sb) })

	logits := randTensor(rng, dt, w.rows, w.classes)
	probs := tensor.NewLike(logits)
	m["tensor.softmax_rows_ns"] = 1e9 * r.sample("tensor.SoftmaxRowsInto", 500, func() { tensor.SoftmaxRowsInto(probs, logits) })
}

func (r *runner) probeNN(m metricSet, task pipemare.Task, tr *pipemare.Trainer) {
	st := task.(stageTask)
	prog := st.Program()
	mach := nn.NewMachine(prog.NumRegs)
	mach.Tape.SetDType(r.w.dtype)
	micro := r.w.batch / tr.Microbatches()
	idx := make([]int, micro)
	for i := range idx {
		idx[i] = i
	}
	nOps := len(prog.Ops)
	bind := func() {
		mach.ResetRun()
		st.BindMicro(mach, idx)
	}
	bind()
	prog.ForwardRange(mach, 0, nOps) // untimed: fills the tape arena
	prog.BackwardRange(mach, 0, nOps)

	var fwd, bwd []float64
	samples := probeSamples
	if r.cfg.quick {
		samples = 1
	}
	for i := 0; i < samples; i++ {
		bind()
		fwd = append(fwd, r.spans.time("nn.Program.ForwardRange", func() { prog.ForwardRange(mach, 0, nOps) }).Seconds())
		bwd = append(bwd, r.spans.time("nn.Program.BackwardRange", func() { prog.BackwardRange(mach, 0, nOps) }).Seconds())
	}
	m["nn.fwd_ms_per_micro"] = 1e3 * median(fwd)
	m["nn.bwd_ms_per_micro"] = 1e3 * median(bwd)

	// nn.Cost's estimate is per activation row.
	groups := len(task.Groups())
	flopsPerRow := 0.0
	for _, c := range prog.GroupCosts(groups) {
		flopsPerRow += c.FLOPs
	}
	m["nn.flops_per_epoch"] = flopsPerRow * float64(r.w.rowsPerSample*r.res.SamplesPerEpoch)

	// The cost model's error as the partitioner sees it: each stage's
	// measured share of a forward+backward pass against its share of the
	// nn.Cost total.
	part := tr.Partition()
	lo, hi, err := prog.StageRanges(part.StageOf, part.P)
	if err != nil {
		panic(err) // the trainer was built from this same program shape
	}
	measured := make([]float64, part.P)
	for i := 0; i < samples; i++ {
		bind()
		for k := 0; k < part.P; k++ {
			measured[k] += r.spans.time("nn.Program.ForwardRange/stage", func() { prog.ForwardRange(mach, lo[k], hi[k]) }).Seconds()
		}
		for k := part.P - 1; k >= 0; k-- {
			measured[k] += r.spans.time("nn.Program.BackwardRange/stage", func() { prog.BackwardRange(mach, lo[k], hi[k]) }).Seconds()
		}
	}
	m["nn.cost_share_err"] = maxShareGap(measured, tr.StageCosts())
}

// maxShareGap normalises both vectors to shares of their totals and
// returns the largest absolute difference between corresponding shares.
func maxShareGap(a, b []float64) float64 {
	sum := func(v []float64) (t float64) {
		for _, x := range v {
			t += x
		}
		return t
	}
	ta, tb := sum(a), sum(b)
	gap := 0.0
	for i := range a {
		gap = math.Max(gap, math.Abs(a[i]/ta-b[i]/tb))
	}
	return gap
}

func (r *runner) probeModelData(m metricSet, task pipemare.Task, tr *pipemare.Trainer) {
	m["model.eval_ms"] = 1e3 * r.sample("model.EvalTest", 1, func() { task.EvalTest() })

	rng := rand.New(rand.NewSource(r.cfg.seed))
	micro := r.w.batch / tr.Microbatches()
	m["data.batches_us_per_epoch"] = 1e6 * r.sample("data.Batches+Microbatches", 20, func() {
		for _, batch := range data.Batches(task.NumTrain(), r.w.batch, rng) {
			data.Microbatches(batch, micro)
		}
	})
}

func (r *runner) probeOptimPipeline(m metricSet, task pipemare.Task, tr *pipemare.Trainer) {
	// The nn probe's backward passes left real gradients on the task.
	var ps []*nn.Param
	for _, g := range task.Groups() {
		ps = append(ps, g.Params...)
	}
	opt := r.w.newOptimizer(ps)
	lrs := optim.UniformLR(1e-6, len(ps))
	m["optim.step_ms"] = 1e3 * r.sample("optim.Step", 3, func() { opt.Step(lrs) })

	// The version rings at the workload's stage sizes and lookback.
	part, err := pipeline.PartitionGroups(task.Groups(), tr.Stages())
	if err != nil {
		panic(err) // same groups and stage count as the live trainer
	}
	n := tr.Microbatches()
	keep := (2*part.P+n+n-1)/n + 1
	store := pipeline.NewVersionStore(part.Stages, keep)
	for i := 0; i < keep; i++ {
		store.Push() // fill the rings so Push also prunes, as in steady state
	}
	m["pipeline.version_push_us"] = 1e6 * r.sample("pipeline.VersionStore.Push", 3, func() { store.Push() })
	got := 0
	m["pipeline.version_get_us"] = 1e6 * r.sample("pipeline.VersionStore.Get", 100, func() {
		for st := 0; st < part.P; st++ {
			got += len(store.Get(st, store.Latest(st)-1)) // used, so the call is not compiled away
		}
	})
	if got == 0 {
		panic("pipeline: version store returned no snapshots")
	}
	m["pipeline.stage_imbalance"] = tr.StageImbalance()
}

// probeCheckpoint times one checkpoint write and one restore on the live
// trainer, directly. The restore loads the state just written, so the
// trainer is left as it was.
func (r *runner) probeCheckpoint(m metricSet, tr *pipemare.Trainer) error {
	dir := r.newDir()
	defer os.RemoveAll(dir)
	var path string
	var err error
	write := r.spans.time("core.Trainer.WriteCheckpoint", func() { path, err = tr.WriteCheckpoint(dir) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	restore := r.spans.time("core.Trainer.RestoreFrom", func() { err = tr.RestoreFrom(path) })
	if err != nil {
		return err
	}
	mb := float64(info.Size()) / 1e6
	m["core.ckpt_write_ms"] = 1e3 * write.Seconds()
	m["core.ckpt_mb"] = mb
	m["core.ckpt_mb_per_s"] = mb / write.Seconds()
	m["core.ckpt_restore_ms"] = 1e3 * restore.Seconds()
	return nil
}

// probeTransport times the codec, the framing and a loopback connection
// on one stage's gradient set — what a replica exports per minibatch.
func (r *runner) probeTransport(m metricSet, tr *pipemare.Trainer) error {
	var grads []*tensor.Tensor
	for _, p := range tr.Partition().Stages[0] {
		grads = append(grads, p.Grad)
	}
	payload := transport.AppendTensors(nil, grads)
	mb := float64(len(payload)) / 1e6
	// A fine-grained stage's gradients are a few KB: repeat until each
	// measurement moves about a megabyte.
	reps := max(1, (1<<20)/len(payload))
	// Into a fresh buffer each call, as the callers do: growing it is part
	// of what an encode costs them.
	enc := r.sample("transport.AppendTensors", reps, func() { payload = transport.AppendTensors(nil, grads) })
	m["transport.encode_mb_per_s"] = mb / enc

	var bufs []*tensor.Tensor
	var decErr error
	dec := r.sample("transport.Cursor.TensorsInto", reps, func() {
		c := transport.NewCursor(payload)
		bufs = c.TensorsInto(bufs)
		if err := c.Done(); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	m["transport.decode_mb_per_s"] = mb / dec

	// Frames of the size Conn.Send cuts a large message into.
	const chunk = 1 << 18
	var frames []byte
	var frameErr error
	frame := r.sample("transport.AppendFrame+DecodeFrame", reps, func() {
		frames = frames[:0]
		for rest := payload; len(rest) > 0; {
			n := min(len(rest), chunk)
			frames = transport.AppendFrame(frames, transport.Header{Type: transport.MsgSetGrads}, rest[:n])
			rest = rest[n:]
		}
		for rest := frames; len(rest) > 0; {
			var err error
			if _, _, rest, err = transport.DecodeFrame(rest); err != nil {
				frameErr = err
				return
			}
		}
	})
	if frameErr != nil {
		return frameErr
	}
	m["transport.frame_mb_per_s"] = mb / frame

	return r.probeConn(m, payload, reps)
}

// probeConn measures a loopback connection: an empty-payload ping-pong
// for the round trip, and the gradient payload one way (acknowledged by
// an empty message) for streaming throughput. The far end is an echo
// goroutine that lives for this function.
func (r *runner) probeConn(m metricSet, payload []byte, reps int) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	lis, dial := transport.Loopback()
	defer lis.Close()
	echoDone := make(chan error, 1)
	go func() {
		far, err := lis.Accept(ctx)
		if err != nil {
			echoDone <- err
			return
		}
		defer far.Close()
		for {
			msg, err := far.Recv(ctx)
			if err != nil {
				echoDone <- err
				return
			}
			if msg.Type == transport.MsgBye {
				echoDone <- nil
				return
			}
			if err := far.Send(ctx, transport.Msg{Type: transport.MsgAck}); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		cancel()
		<-echoDone
		return err
	}
	defer conn.Close()
	var connErr error
	roundTrip := func(msg transport.Msg) {
		if err := conn.Send(ctx, msg); err != nil {
			connErr = err
			return
		}
		if _, err := conn.Recv(ctx); err != nil {
			connErr = err
		}
	}
	rtt := r.sample("transport.Conn.Send+Recv/empty", 200, func() { roundTrip(transport.Msg{Type: transport.MsgSync}) })
	stream := r.sample("transport.Conn.Send+Recv/grads", reps, func() { roundTrip(transport.Msg{Type: transport.MsgSetGrads, Data: payload}) })
	if connErr == nil {
		connErr = conn.Send(ctx, transport.Msg{Type: transport.MsgBye})
	}
	if connErr != nil {
		cancel() // unblock the echo goroutine whatever state it is in
		<-echoDone
		return connErr
	}
	if err := <-echoDone; err != nil {
		return err
	}
	m["transport.rtt_us"] = 1e6 * rtt
	m["transport.stream_mb_per_s"] = float64(len(payload)) / 1e6 / stream
	return nil
}
