package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
	"pipemare/internal/trace"
)

// RemoteMember is the leader-side proxy for a follower replica hosted in
// another process (or another goroutine, over the loopback transport).
// It implements replica.Remote: the collective surface replica.Group
// drives for the reduce, sharded commit and handoff, plus RunChunk, so
// the group ships the follower's microbatch chunk to the worker as one
// message — the worker's pipeline slots are not reachable from here.
// Every replica.Member method but Stages is exactly one request and its
// reply; the proxy holds the connection and nothing of the leader's.
//
// Transport failures are sticky: the first I/O error poisons the member,
// every subsequent operation fails fast, and replica.Group surfaces the
// error through the engine to Trainer.Run. A diverged chunk is a normal
// reply, not a fault.
type RemoteMember struct {
	conn    MsgConn
	replica int // the group position announced in the handshake (the wire's Replica field)
	id      int // the member's stable leader-side id (SetID): trace pid, error text
	stages  int
	hb      time.Duration // heartbeat interval (0 disables the liveness window)

	mu     sync.Mutex
	ctx    context.Context // bound per minibatch (BindContext); Background otherwise
	err    error           // sticky transport error
	closed bool

	// Straggler accounting (WithStragglerDemotion). sk is the budget of
	// consecutive heartbeat windows a chunk reply may miss; misses counts
	// missed windows across chunks, resetting whenever a chunk replies
	// within its first window. ready reports that a demoted member's late
	// in-flight reply has been drained and discarded, so the standby can
	// rejoin.
	sk       int
	misses   int
	ready    bool
	draining bool

	losses  []float64
	grads   [][][]*tensor.Tensor
	states  [][]*tensor.Tensor // per-stage StageState decode buffers
	scratch []byte

	// tk is the member's wire track on rec (both nil when tracing is
	// off). Every post-handshake exchange runs under m.mu, so the track
	// has a single writer by construction.
	rec *trace.Recorder
	tk  *trace.Track
}

// NewRemoteMember dials nothing — conn is already established, by a
// launch-time dial or a joiner's — but runs the leader's half of the
// session's hello: it announces spec, waits for the worker's verdict, and
// returns the proxy on MsgHelloOK. A refusal is an error carrying the
// worker's reason. Until the replica group assigns the proxy its stable
// id (SetID), the announced position labels its errors.
func NewRemoteMember(ctx context.Context, conn MsgConn, spec Spec) (*RemoteMember, error) {
	m := &RemoteMember{
		conn:    conn,
		replica: spec.Replica,
		stages:  spec.Stages,
		hb:      spec.Heartbeat,
		ctx:     context.Background(),
		states:  make([][]*tensor.Tensor, spec.Stages),
	}
	m.SetID(spec.Replica)
	if _, err := m.exchange(ctx, Msg{Type: MsgHello, Stage: -1, Data: spec.encode()}, MsgHelloOK); err != nil {
		return nil, err
	}
	return m, nil
}

// SetID implements replica.Remote: the group owns member ids and hands
// the proxy its own when its record enters the table. Unlike the group
// position on the wire, which a departed member may have held before, the
// id labels this proxy's wire track and errors for good.
func (m *RemoteMember) SetID(id int) {
	m.mu.Lock()
	m.id = id
	m.tk = m.rec.Track(id, trace.TidWire, "wire")
	m.mu.Unlock()
}

// SetStragglerMisses arms the straggler policy on this member: a chunk
// whose reply misses k consecutive heartbeat windows demotes the member
// (RunChunk returns an error wrapping replica.ErrStraggler without
// poisoning it). k ≤ 0, or a session without a heartbeat, disables it.
func (m *RemoteMember) SetStragglerMisses(k int) {
	m.mu.Lock()
	m.sk = k
	m.mu.Unlock()
}

// Rearm implements replica.Remote: it reports whether a demoted member
// has drained its late in-flight reply and can rejoin, and if so resets
// its straggler accounting for readmission. A member whose drain failed
// is never ready; its sticky error tells the group to drop it.
func (m *RemoteMember) Rearm() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ready || m.err != nil {
		return false
	}
	m.misses, m.ready = 0, false
	return true
}

// SetTracer attaches a trace recorder: once the member has entered the
// replica group — which opens its wire track under the id it assigns
// (SetID) — every answered request is recorded as a span on that track
// (with the message's payload bytes both ways), consumed heartbeat pings
// as instants. Call it once, right after the handshake, before the
// member is handed to the group.
func (m *RemoteMember) SetTracer(rec *trace.Recorder) {
	m.mu.Lock()
	m.rec = rec
	m.mu.Unlock()
}

// wireNames are the interned wire-span names, indexed by request type.
var wireNames = [...]string{
	MsgHello:    "wire:hello",
	MsgRunChunk: "wire:chunk",
	MsgSetGrads: "wire:set-grads",
	MsgPrepare:  "wire:prepare",
	MsgStep:     "wire:step",
	MsgGetState: "wire:get-state",
	MsgSetState: "wire:set-state",
	MsgSetRing:  "wire:set-ring",
	MsgImport:   "wire:import",
}

// wireName maps a request type to its wire-span name.
func wireName(typ byte) string {
	if int(typ) < len(wireNames) && wireNames[typ] != "" {
		return wireNames[typ]
	}
	return "wire:other"
}

// BindContext binds the context every subsequent wire operation uses for
// cancellation and deadline — replica.Group calls it at minibatch Begin,
// so a cancel mid-collective unwinds each blocked read/write.
func (m *RemoteMember) BindContext(ctx context.Context) {
	m.mu.Lock()
	if ctx == nil {
		ctx = context.Background()
	}
	m.ctx = ctx
	m.mu.Unlock()
}

// Err returns the sticky transport error, if any.
func (m *RemoteMember) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close says goodbye (best effort) and closes the connection. Further
// Closes are no-ops. When an in-flight collective holds the member lock
// — blocked on a slow or hung peer — Close does not wait behind it: it
// closes the connection first, which unblocks the collective's read or
// write with an I/O error, then latches the closed state.
func (m *RemoteMember) Close() error {
	if !m.mu.TryLock() {
		err := m.conn.Close()
		m.mu.Lock()
		defer m.mu.Unlock()
		m.closed = true
		if m.err == nil {
			m.err = errors.New("transport: member closed")
		}
		return err
	}
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		m.conn.Send(ctx, Msg{Type: MsgBye, Replica: uint16(m.replica), Stage: -1})
		cancel()
	}
	m.err = errors.New("transport: member closed")
	return m.conn.Close()
}

// exchange is the proxy's one request path; the caller holds m.mu, or
// owns the member alone (the hello). It fails fast on the sticky error,
// sends req once, and waits for the reply through awaitReply, with the
// straggler policy armed when req is a chunk. It records the answered
// request as one wire span, then maps a MsgErr reply to its error. A
// divergence or a straggle passes through without poisoning the member;
// any other failure, or a reply of another type than want, is latched.
// Nothing is ever resent: once the request may be on the wire, the
// peer's state is unknown.
func (m *RemoteMember) exchange(ctx context.Context, req Msg, want byte) (Msg, error) {
	if m.err != nil {
		return Msg{}, m.err
	}
	req.Replica = uint16(m.replica)
	t0 := m.tk.Now()
	var resp Msg
	err := m.conn.Send(ctx, req)
	if err == nil {
		resp, err = m.awaitReply(ctx, req.Type == MsgRunChunk && m.sk > 0)
	}
	if err == nil {
		m.tk.Span(wireName(req.Type), t0, int(req.Stage), -1, int64(req.PayloadLen()+resp.PayloadLen()))
		if resp.Type == MsgErr {
			err = decodeWireErr(resp.Data, "worker")
		} else if resp.Type != want {
			err = fmt.Errorf("reply type %d, want %d", resp.Type, want)
		}
	}
	switch {
	case err == nil:
		return resp, nil
	case errors.Is(err, engine.ErrDiverged) || errors.Is(err, replica.ErrStraggler):
		return Msg{}, err
	}
	return Msg{}, m.latch(fmt.Errorf("%s: %w", wireName(req.Type), err))
}

// awaitReply is the member's one reply wait. Without a heartbeat it is
// the plain Recv. With one, a reader goroutine hands up each message —
// pings, then the reply — and the heartbeat interval is the wait's one
// window, which two rules count:
//
//   - hang: a peer silent (no reply, no ping) for heartbeatMisses windows
//     is hung. The read is cancelled and the wait returns ErrPeerTimeout
//     for the caller to latch.
//   - straggle, when armed: each window a chunk's reply misses is a miss,
//     counted across chunks and reset by a reply inside its chunk's first
//     window. At sk misses the wait returns replica.ErrStraggler, pings or
//     not, without poisoning the member, and carries on as the drain.
//
// A straggle never cancels the read: a cancelled read could lose an
// already-framed late reply, making late delivery and the drain
// impossible.
func (m *RemoteMember) awaitReply(ctx context.Context, armed bool) (Msg, error) {
	if m.hb <= 0 {
		return m.conn.Recv(ctx)
	}
	rctx, cancel := context.WithCancel(ctx)
	msgs := make(chan wireReply)
	go func() {
		for {
			msg, err := m.conn.Recv(rctx)
			msgs <- wireReply{msg, err}
			if err != nil || msg.Type != MsgPing {
				return
			}
		}
	}()
	tick := time.NewTicker(m.hb)
	late, heard := false, time.Now() // a window has passed; the last message came
	var wait func(armed bool) (Msg, error)
	wait = func(armed bool) (Msg, error) {
		for {
			select {
			case r := <-msgs:
				if r.err == nil && r.msg.Type == MsgPing {
					m.tk.Instant(trace.NameHeartbeat, -1, -1, 0)
					heard = time.Now()
					continue
				}
				tick.Stop()
				cancel()
				if armed && r.err == nil && !late {
					m.misses = 0
				}
				return r.msg, r.err
			case <-tick.C:
			}
			late = true
			if time.Since(heard) >= heartbeatMisses*m.hb {
				tick.Stop()
				cancel()
				// Wait the reader out: its cancelled read ends it.
				for r := <-msgs; r.err == nil && r.msg.Type == MsgPing; r = <-msgs {
				}
				return Msg{}, fmt.Errorf("%w: replica %d silent for %d heartbeats of %v", ErrPeerTimeout, m.id, heartbeatMisses, m.hb)
			}
			if armed {
				if m.misses++; m.misses >= m.sk {
					m.ready, m.draining = false, true
					go m.drain(wait)
					return Msg{}, fmt.Errorf("%w: replica %d missed %d consecutive %v heartbeat windows", replica.ErrStraggler, m.id, m.sk, m.hb)
				}
			}
		}
	}
	return wait(armed)
}

type wireReply struct {
	msg Msg
	err error
}

// drain runs after a demotion: it continues the straggler's reply wait
// (awaitReply), disarmed, discards the late reply — the interrupted
// minibatch replays over the survivors, so the late result must not be
// used — and marks the standby ready. A drain that ends in a transport
// error or a hang latches it instead, so the group drops the standby.
func (m *RemoteMember) drain(wait func(armed bool) (Msg, error)) {
	_, err := wait(false)
	m.mu.Lock()
	m.draining = false
	if err != nil {
		m.latch(fmt.Errorf("drain: %w", err))
	} else {
		m.ready = true
	}
	m.mu.Unlock()
}

// call runs one Member request under the member lock, with the context
// BindContext bound.
func (m *RemoteMember) call(req Msg, want byte) (Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exchange(m.ctx, req, want)
}

// appendWireErr encodes a MsgErr payload: the error code, then the text.
func appendWireErr(dst []byte, code uint32, text string) []byte {
	return append(AppendU32(dst, code), text...)
}

// decodeWireErr turns a MsgErr payload from peer ("worker", "leader")
// back into an error.
func decodeWireErr(data []byte, peer string) error {
	c := NewCursor(data)
	code := c.U32()
	text := string(c.b)
	if c.err != nil {
		return fmt.Errorf("malformed error reply")
	}
	if code == errDiverged {
		return engine.ErrDiverged
	}
	return fmt.Errorf("%s: %s", peer, text)
}

// RunChunk ships the follower's share of a minibatch to the worker: the
// chunk's global microbatch base, the leader's epoch phase, whether it is
// chunk 0, and the sample indices. The worker drives the chunk through
// its follower's engine and replies with the per-microbatch losses and
// the exported gradients: per (microbatch, stage), or chunk 0's one
// prefix per stage.
func (m *RemoteMember) RunChunk(ctx context.Context, start int, async, first bool, micros [][]int) ([]float64, [][][]*tensor.Tensor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil && (m.draining || m.ready) {
		// A late reply from a previous demotion is (or was) still on the
		// wire and the drainer owns the connection's read side: fail fast
		// with another straggle instead of racing it. Rearm clears this
		// state at readmission.
		return nil, nil, fmt.Errorf("%w: replica %d still draining a late chunk", replica.ErrStraggler, m.id)
	}
	b := AppendU32(m.scratch[:0], uint32(start))
	b = AppendBool(b, async)
	b = AppendBool(b, first)
	b = AppendU32(b, uint32(len(micros)))
	for _, mb := range micros {
		b = AppendU32(b, uint32(len(mb)))
		for _, i := range mb {
			b = AppendU32(b, uint32(i))
		}
	}
	m.scratch = b
	resp, err := m.exchange(ctx, Msg{Type: MsgRunChunk, Stage: -1, Data: b}, MsgChunkDone)
	if err != nil {
		return nil, nil, err
	}
	rows := len(micros)
	if first {
		rows = 1
	}
	losses, grads, err := m.decodeChunkDone(resp.Data, len(micros), rows)
	if err != nil {
		return nil, nil, m.latch(err)
	}
	return losses, grads, nil
}

func (m *RemoteMember) decodeChunkDone(data []byte, wantK, wantRows int) ([]float64, [][][]*tensor.Tensor, error) {
	c := NewCursor(data)
	nl := c.Count(8)
	if cap(m.losses) < nl {
		m.losses = make([]float64, nl)
	}
	m.losses = m.losses[:nl]
	for i := range m.losses {
		m.losses[i] = c.F64()
	}
	k := c.Count(1)
	p := c.Count(1)
	if c.err == nil && (nl != wantK || k != wantRows || p != m.stages) {
		return nil, nil, fmt.Errorf("chunk reply shape %d losses/%d gradient rows/%d stages, want %d/%d/%d", nl, k, p, wantK, wantRows, m.stages)
	}
	for len(m.grads) < k {
		m.grads = append(m.grads, make([][]*tensor.Tensor, m.stages))
	}
	for i := 0; i < k; i++ {
		for st := 0; st < p; st++ {
			m.grads[i][st] = c.TensorsInto(m.grads[i][st])
		}
	}
	if err := c.Done(); err != nil {
		return nil, nil, err
	}
	return m.losses, m.grads[:k:k], nil
}

// --- collective surface (replica.Member) ---

// Stages returns P.
func (m *RemoteMember) Stages() int { return m.stages }

func (m *RemoteMember) stageMsg(typ byte, stage int, data []byte) Msg {
	return Msg{Type: typ, Stage: int32(stage), Data: data}
}

// listMsg is a stage request whose payload is one tensor list, encoded
// from the tensors as it is framed.
func (m *RemoteMember) listMsg(typ byte, stage int, ts []*tensor.Tensor) Msg {
	return Msg{Type: typ, Stage: int32(stage), Lists: [][]*tensor.Tensor{ts}}
}

// SetStageGrads scatters the leader's reduced gradients for one stage to
// this owner as a copy over the wire; bufs keep their tensors.
func (m *RemoteMember) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	m.call(m.listMsg(MsgSetGrads, stage, bufs), MsgAck)
}

// PrepareStage runs the stage's gradient averaging on the worker and
// returns its clip-norm partial (0 after a transport failure — the
// commit unwinds through Group's error check, not through the sum).
func (m *RemoteMember) PrepareStage(stage, nMicro int) float64 {
	resp, err := m.call(m.stageMsg(MsgPrepare, stage, AppendU32(nil, uint32(nMicro))), MsgPrepared)
	if err != nil {
		return 0
	}
	c := NewCursor(resp.Data)
	v := c.F64()
	if err := c.Done(); err != nil {
		m.fail(err)
		return 0
	}
	return v
}

// StepStage runs the stage's whole update remotely under the clip scale.
func (m *RemoteMember) StepStage(stage int, scale float64) {
	m.call(m.stageMsg(MsgStep, stage, AppendF64(nil, scale)), MsgAck)
}

// StageState fetches the stage's post-step masters (and moments under
// fault tolerance) from the worker into a per-stage reuse buffer. replica.Group reads each owner's state from a
// single goroutine before fanning it out, so the buffer is never written
// while an importer reads it. Returns nil after a transport failure.
func (m *RemoteMember) StageState(stage int) []*tensor.Tensor {
	resp, err := m.call(m.stageMsg(MsgGetState, stage, nil), MsgState)
	if err != nil {
		return nil
	}
	c := NewCursor(resp.Data)
	m.states[stage] = c.TensorsInto(m.states[stage])
	if err := c.Done(); err != nil {
		m.fail(err)
		return nil
	}
	return m.states[stage]
}

// ImportStageState ships an owner's post-step masters (and moments under
// fault tolerance) to the worker, which imports them, replays the step's
// T2 tail and pushes its version queue.
func (m *RemoteMember) ImportStageState(stage int, src []*tensor.Tensor) {
	m.call(m.listMsg(MsgImport, stage, src), MsgAck)
}

// SetStageState ships one stage of a handoff — the leader's whole stage
// state — to the worker, which overwrites its own with it.
func (m *RemoteMember) SetStageState(stage int, src []*tensor.Tensor) {
	m.call(m.listMsg(MsgSetState, stage, src), MsgAck)
}

// RestoreVersions ships a stage's weight-version ring to the worker
// (checkpoint restore, handoff): the ring's base version number and its
// snapshots, oldest to newest. The worker replaces its ring wholesale,
// so historical-version installs afterwards are bit-identical to the
// leader's.
func (m *RemoteMember) RestoreVersions(stage, base int, snaps [][]*tensor.Tensor) {
	m.call(RingMsg(MsgSetRing, stage, base, snaps), MsgAck)
}

// latch poisons the member with err unless an earlier error already
// stuck, and returns the sticky error; the caller holds m.mu.
func (m *RemoteMember) latch(err error) error {
	if m.err == nil {
		m.err = fmt.Errorf("transport: replica %d: %w", m.id, err)
	}
	return m.err
}

func (m *RemoteMember) fail(err error) {
	m.mu.Lock()
	m.latch(err)
	m.mu.Unlock()
}

var _ replica.Remote = (*RemoteMember)(nil)
