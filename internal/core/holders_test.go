package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"pipemare/internal/faults"
	"pipemare/internal/optim"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// holders maps each gradient buffer to the one cell that holds it: a
// Param.Grad field or an element of a buffer list. Gradients move between
// their holders by swap (TakeStageGrads, SetStageGrads), so a tensor found
// in two cells is a buffer two holders would write.
type holders struct {
	t     *testing.T
	cells map[*tensor.Tensor]**tensor.Tensor
	names map[**tensor.Tensor]string
}

func (h *holders) add(cell **tensor.Tensor, name string) {
	h.t.Helper()
	if *cell == nil {
		return
	}
	if prev, ok := h.cells[*cell]; ok && prev != cell {
		h.t.Fatalf("gradient buffer %p is held by %s and by %s", *cell, h.names[prev], name)
	}
	h.cells[*cell], h.names[cell] = cell, name
}

// list adds every tensor cell of v, a list of tensors or a nested list of
// them. Two views of one backing array are one holder: their cells are
// the same.
func (h *holders) list(v reflect.Value, name string) {
	h.t.Helper()
	for i := 0; i < v.Len(); i++ {
		e := v.Index(i)
		if e.Kind() == reflect.Slice {
			h.list(e, fmt.Sprintf("%s[%d]", name, i))
			continue
		}
		h.add((**tensor.Tensor)(unsafe.Pointer(e.UnsafeAddr())), fmt.Sprintf("%s[%d]", name, i))
	}
}

// params adds the gradient accumulators of a trainer.
func (h *holders) params(tr *Trainer, name string) {
	for i, p := range tr.params {
		h.add(&p.Grad, fmt.Sprintf("%s Param.Grad %d", name, i))
	}
}

// field returns the named field of the struct v points to, through
// pointers and interfaces; the package's own types keep these fields
// unexported, so the walk is by name and fails loudly on a rename.
func field(v reflect.Value, name string) reflect.Value {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		v = v.Elem()
	}
	f := v.FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("%v has no field %q", v.Type(), name))
	}
	return f
}

// group adds the leader's buffers: the scatter staging, and for every
// member of the table its chunk rows — an in-process member's Compute
// rows, a remote member's rows, which are its proxy's decode buffers —
// and a proxy's state decode buffers.
func (h *holders) group(g *replica.Group) {
	gv := reflect.ValueOf(g)
	h.list(field(gv, "scatter"), "Group.scatter")
	members := field(gv, "members")
	for i := 0; i < members.Len(); i++ {
		m := members.Index(i)
		if c := field(m, "comp"); !c.IsNil() {
			h.list(field(c, "grads"), fmt.Sprintf("member %d Compute rows", i))
		}
		h.list(field(field(m, "chunk"), "grads"), fmt.Sprintf("member %d chunk rows", i))
		if r := field(m, "remote"); !r.IsNil() {
			h.remote(r, fmt.Sprintf("member %d", i))
		}
	}
}

// remote adds a RemoteMember's decode buffers.
func (h *holders) remote(r reflect.Value, name string) {
	h.list(field(r, "grads"), name+" RemoteMember.grads")
	h.list(field(r, "states"), name+" RemoteMember.states")
}

// heldLocal is a worker's follower that records every tensor list the
// serve loop hands it: its Compute's chunk rows (TakeStageGrads returns
// each row's list, which the row keeps) and the server's decode buffers
// (SetStageGrads, ImportStageState and SetStageState read them in place).
type heldLocal struct {
	host
	lists map[**tensor.Tensor][]*tensor.Tensor
}

func (h *heldLocal) keep(ts []*tensor.Tensor) {
	if len(ts) > 0 {
		h.lists[&ts[0]] = ts
	}
}

func (h *heldLocal) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	out := h.host.TakeStageGrads(stage, bufs)
	h.keep(out)
	return out
}

func (h *heldLocal) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	h.host.SetStageGrads(stage, bufs)
	h.keep(bufs)
}

func (h *heldLocal) ImportStageState(stage int, src []*tensor.Tensor) {
	h.host.ImportStageState(stage, src)
	h.keep(src)
}

func (h *heldLocal) SetStageState(stage int, src []*tensor.Tensor) {
	h.host.SetStageState(stage, src)
	h.keep(src)
}

// TestEveryGradientBufferHasOneHolder pins the swap's invariant: at R = 2
// with chunk 0 on the follower and fault tolerance on, after every epoch
// no gradient buffer is held twice across the members' Param.Grad, the
// Compute chunk rows, Group.scatter, the RemoteMember's decode buffers
// and the server's. In process the follower's rows and accumulators take
// every swap; over loopback the follower's link dies on the second step
// message of the fourth commit (the fault grid's step rule), so the
// leader takes its shard over from Group.scatter and trains on alone.
func TestEveryGradientBufferHasOneHolder(t *testing.T) {
	for _, loop := range []bool{false, true} {
		name := "in-process"
		if loop {
			name = "loopback"
		}
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stages, epochs = 4, 3
			task := newRepTask(stages, 16) // two minibatches an epoch
			opt := optim.NewSGD(repParams(task), 0.9, 0)
			cfg := Config{Stages: stages, BatchSize: 8, MicrobatchSize: 2, Replicas: 2, FaultTolerant: true, Seed: 1}
			var followers []*Trainer
			var proxies []*transport.RemoteMember
			var worker *heldLocal
			served := make(chan error, 1)
			if !loop {
				cfg.Followers = captureFollowers(task, opt, cfg, &followers)
			} else {
				lis, dial := transport.Loopback()
				build := func(spec transport.Spec) (replica.Local, error) {
					clone := task.CloneTask().(*repTask)
					m, err := NewFollower(clone, optim.NewSGD(repParams(clone), 0.9, 0), optim.Constant(0.1), nil, nil, spec)
					if err != nil {
						return nil, err
					}
					followers = append(followers, m.(host).t)
					worker = &heldLocal{host: m.(host), lists: map[**tensor.Tensor][]*tensor.Tensor{}}
					return worker, nil
				}
				go func() { served <- transport.Serve(ctx, lis, build) }()
				// Each commit sends the follower's shard, stages 2 and 3, one
				// MsgStep each: the 8th is the fourth commit's second.
				kill := &faults.Dialer{Inner: dial, Script: faults.NewScript(
					faults.Rule{Dir: faults.Send, Type: transport.MsgStep, Nth: 8, Op: faults.Kill})}
				cfg.Followers = func(spec transport.Spec) (replica.Member, error) {
					conn, err := kill.Dial(ctx)
					if err != nil {
						return nil, err
					}
					m, err := transport.NewRemoteMember(ctx, conn, spec)
					if err == nil {
						proxies = append(proxies, m)
					}
					return m, err
				}
			}
			tr, err := New(task, opt, optim.Constant(0.1), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for e := 1; e <= epochs; e++ {
				if _, err := tr.Run(ctx, 1); err != nil {
					t.Fatal(err)
				}
				h := &holders{t: t, cells: map[*tensor.Tensor]**tensor.Tensor{}, names: map[**tensor.Tensor]string{}}
				h.params(tr, "leader")
				for i, f := range followers {
					h.params(f, fmt.Sprintf("follower %d", i+1))
				}
				h.group(tr.group)
				for i, p := range proxies {
					h.remote(reflect.ValueOf(p), fmt.Sprintf("proxy %d", i+1))
				}
				if worker != nil {
					for _, ts := range worker.lists {
						h.list(reflect.ValueOf(ts), "worker buffer")
					}
				}
				want := 2
				if loop && e >= 2 {
					want = 1 // the takeover evicted the follower in epoch 2
				}
				if got := tr.Replicas(); got != want {
					t.Fatalf("epoch %d ends with %d replicas, want %d", e, got, want)
				}
			}
			if loop {
				cancel()
				<-served // the worker's link was killed: it ends with an error
			}
		})
	}
}
