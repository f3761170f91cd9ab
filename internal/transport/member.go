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
// drives for the reduce, sharded commit and broadcast, plus RunChunk, so
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
	id      int // the member's stable leader-side id (SetID): trace pid, error text, jitter seed
	stages  int
	hb      time.Duration // heartbeat interval (0 disables the liveness window)

	mu     sync.Mutex
	ctx    context.Context // bound per minibatch (BindContext); Background otherwise
	err    error           // sticky transport error
	closed bool
	jit    uint64 // deterministic retry-jitter state (per-member LCG)

	// Straggler accounting (WithStragglerPolicy). sdl is the per-chunk
	// collective deadline and sk the consecutive-miss budget; misses
	// counts expired deadline windows across chunks, resetting whenever a
	// chunk replies within its first window. ready reports that a demoted
	// member's late in-flight reply has been drained and discarded, so
	// the standby can rejoin.
	sdl      time.Duration
	sk       int
	misses   int
	ready    bool
	draining bool

	losses  []float64
	grads   [][][]*tensor.Tensor
	states  [][]*tensor.Tensor // per-stage StageState decode buffers
	scratch []byte

	// tk is the member's wire track on rec (both nil when tracing is
	// off). Every post-handshake round-trip runs under m.mu, so the track
	// has a single writer by construction.
	rec *trace.Recorder
	tk  *trace.Track
}

// NewRemoteMember dials nothing — conn is already established — but runs
// the handshake: it announces spec, waits for the worker's verdict, and
// returns the proxy on MsgHelloOK.
func NewRemoteMember(ctx context.Context, conn MsgConn, spec Spec) (*RemoteMember, error) {
	m := newMember(conn, spec)
	resp, err := m.roundTrip(ctx, Msg{Type: MsgHello, Replica: uint16(spec.Replica), Stage: -1, Data: spec.encode()})
	if err != nil {
		return nil, fmt.Errorf("transport: handshake with replica %d: %w", spec.Replica, err)
	}
	if resp.Type != MsgHelloOK {
		return nil, fmt.Errorf("transport: handshake with replica %d: unexpected reply type %d", spec.Replica, resp.Type)
	}
	return m, nil
}

// newMember builds the proxy without running any handshake — shared by
// NewRemoteMember (the MsgHello path) and the join admission path, whose
// handshake (MsgWelcome/MsgJoinOK) the caller runs itself. Until the
// replica group assigns the proxy its stable id (SetID), the announced
// position labels handshake errors.
func newMember(conn MsgConn, spec Spec) *RemoteMember {
	m := &RemoteMember{
		conn:    conn,
		replica: spec.Replica,
		stages:  spec.Stages,
		hb:      spec.Heartbeat,
		ctx:     context.Background(),
		states:  make([][]*tensor.Tensor, spec.Stages),
	}
	m.SetID(spec.Replica)
	return m
}

// SetID implements replica.Remote: the group owns member ids and hands
// the proxy its own when its record enters the table. Unlike the group
// position on the wire, which a departed member may have held before, the
// id labels this proxy's wire track and errors for good and seeds its
// retry jitter.
func (m *RemoteMember) SetID(id int) {
	m.mu.Lock()
	m.id = id
	m.jit = uint64(id)*0x9E3779B97F4A7C15 + 1
	m.tk = m.rec.Track(id, trace.TidWire, "wire")
	m.mu.Unlock()
}

// SetStragglerDeadline arms the straggler policy on this member: a chunk
// whose reply misses k consecutive deadline windows of d demotes the
// member (RunChunk returns an error wrapping replica.ErrStraggler
// without poisoning it). d ≤ 0 or k ≤ 0 disables the policy.
func (m *RemoteMember) SetStragglerDeadline(d time.Duration, k int) {
	m.mu.Lock()
	m.sdl, m.sk = d, k
	m.mu.Unlock()
}

// Ready reports that a demoted member has drained its late in-flight
// reply and can rejoin. A member whose drain failed is never ready; its
// sticky error tells the group to drop it.
func (m *RemoteMember) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ready && !m.draining && m.err == nil
}

// Rearm resets the straggler accounting before readmission.
func (m *RemoteMember) Rearm() {
	m.mu.Lock()
	m.misses, m.ready = 0, false
	m.mu.Unlock()
}

// SetTracer attaches a trace recorder: once the member has entered the
// replica group — which opens its wire track under the id it assigns
// (SetID) — every round-trip is recorded as a span on that track (with
// the message's payload bytes both ways), transient-send retries and
// consumed heartbeat pings as instants. Call it once, right after the
// handshake, before the member is handed to the group.
func (m *RemoteMember) SetTracer(rec *trace.Recorder) {
	m.mu.Lock()
	m.rec = rec
	m.mu.Unlock()
}

// wireNames are the interned wire-span names, indexed by request type.
var wireNames = [...]string{
	MsgHello:     "wire:hello",
	MsgRunChunk:  "wire:chunk",
	MsgSetGrads:  "wire:set-grads",
	MsgPrepare:   "wire:prepare",
	MsgBeginStep: "wire:begin-step",
	MsgScale:     "wire:scale",
	MsgStep:      "wire:step",
	MsgFinish:    "wire:finish",
	MsgGetState:  "wire:get-state",
	MsgSetState:  "wire:set-state",
	MsgSyncEpoch: "wire:sync-epoch",
	MsgSync:      "wire:sync",
	MsgSetRing:   "wire:set-ring",
	MsgWelcome:   "wire:welcome",
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

// send writes one request. Transient failures — the request provably
// never left this process — retry with bounded exponential backoff and
// deterministic per-member jitter; a resend after such a failure is
// invisible to the peer, so the curve is untouched.
func (m *RemoteMember) send(ctx context.Context, req Msg) error {
	for attempt := 0; ; attempt++ {
		err := m.conn.Send(ctx, req)
		if err == nil || !IsTransient(err) || attempt >= retryAttempts {
			return err
		}
		m.tk.Instant(trace.NameRetry, int(req.Stage), -1, int64(req.PayloadLen()))
		if err := m.backoff(ctx, attempt); err != nil {
			return err
		}
	}
}

// roundTrip sends one request and reads its reply without the sticky
// error machinery (the handshake uses it directly). Any failure after the
// request is on the wire is final: the peer's state is unknown.
func (m *RemoteMember) roundTrip(ctx context.Context, req Msg) (Msg, error) {
	t0 := m.tk.Now()
	if err := m.send(ctx, req); err != nil {
		return Msg{}, err
	}
	resp, err := m.recvReply(ctx)
	if err != nil {
		return Msg{}, err
	}
	if resp.Type == MsgErr {
		return Msg{}, decodeWireErr(resp.Data)
	}
	m.tk.Span(wireName(req.Type), t0, int(req.Stage), -1, int64(req.PayloadLen()+resp.PayloadLen()))
	return resp, nil
}

// recvReply reads the next reply, consuming interleaved heartbeat pings.
// With heartbeats enabled, each read runs under a liveness window of
// heartbeatMisses intervals: a peer that neither replies nor pings
// within it is declared hung (ErrPeerTimeout) instead of waited on
// forever.
func (m *RemoteMember) recvReply(ctx context.Context) (Msg, error) {
	for {
		rctx := ctx
		var cancel context.CancelFunc
		if m.hb > 0 {
			rctx, cancel = context.WithTimeout(ctx, m.hb*heartbeatMisses)
		}
		resp, err := m.conn.Recv(rctx)
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if m.hb > 0 && ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
				return Msg{}, fmt.Errorf("%w: replica %d silent for %v", ErrPeerTimeout, m.id, m.hb*heartbeatMisses)
			}
			return Msg{}, err
		}
		if resp.Type == MsgPing {
			m.tk.Instant(trace.NameHeartbeat, -1, -1, 0)
			continue
		}
		return resp, nil
	}
}

// backoff sleeps for the attempt's retry delay (exponential from
// retryBase, plus deterministic jitter from the member's LCG — no
// global RNG, so retries cannot perturb run determinism), honoring ctx.
func (m *RemoteMember) backoff(ctx context.Context, attempt int) error {
	d := retryBase << attempt
	m.jit = m.jit*6364136223846793005 + 1442695040888963407
	d += time.Duration(m.jit>>33) % (d/2 + 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// call is the request/response engine for member operations: serialized
// per connection, sticky on transport failure, with the bound context
// applied to both the write and the read. A diverged reply passes
// through as engine.ErrDiverged without poisoning the member.
func (m *RemoteMember) call(req Msg, want byte) (Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return Msg{}, m.err
	}
	req.Replica = uint16(m.replica)
	resp, err := m.roundTrip(m.ctx, req)
	if err != nil {
		if errors.Is(err, engine.ErrDiverged) {
			return Msg{}, err
		}
		m.err = fmt.Errorf("transport: replica %d: %w", m.id, err)
		return Msg{}, m.err
	}
	if resp.Type != want {
		m.err = fmt.Errorf("transport: replica %d: reply type %d to request %d, want %d", m.id, resp.Type, req.Type, want)
		return Msg{}, m.err
	}
	return resp, nil
}

// appendWireErr encodes a MsgErr payload: the error code, then the text.
func appendWireErr(dst []byte, code uint32, text string) []byte {
	return append(AppendU32(dst, code), text...)
}

// decodeWireErr turns a MsgErr payload back into an error.
func decodeWireErr(data []byte) error {
	c := NewCursor(data)
	code := c.U32()
	text := string(c.b)
	if c.err != nil {
		return fmt.Errorf("malformed error reply")
	}
	if code == errDiverged {
		return engine.ErrDiverged
	}
	return fmt.Errorf("worker: %s", text)
}

// RunChunk ships the follower's share of a minibatch to the worker: the
// chunk's global microbatch base, the leader's epoch phase, and the
// sample indices. The worker drives the chunk through its own inner
// engine and replies with the per-microbatch losses and the exported
// per-(microbatch, stage) gradients.
func (m *RemoteMember) RunChunk(ctx context.Context, start int, async bool, micros [][]int) ([]float64, [][][]*tensor.Tensor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, nil, m.err
	}
	if m.draining || m.ready {
		// A late reply from a previous demotion is (or was) still on the
		// wire and the drainer owns the connection's read side: fail fast
		// with another straggle instead of racing it. Rearm clears this
		// state at readmission.
		return nil, nil, fmt.Errorf("%w: replica %d still draining a late chunk", replica.ErrStraggler, m.id)
	}
	b := AppendU32(m.scratch[:0], uint32(start))
	b = AppendBool(b, async)
	b = AppendU32(b, uint32(len(micros)))
	for _, mb := range micros {
		b = AppendU32(b, uint32(len(mb)))
		for _, i := range mb {
			b = AppendU32(b, uint32(i))
		}
	}
	m.scratch = b
	resp, err := m.chunkRoundTrip(ctx, Msg{Type: MsgRunChunk, Replica: uint16(m.replica), Stage: -1, Data: b})
	if err != nil {
		if errors.Is(err, engine.ErrDiverged) || errors.Is(err, replica.ErrStraggler) {
			return nil, nil, err
		}
		m.err = fmt.Errorf("transport: replica %d: run chunk: %w", m.id, err)
		return nil, nil, m.err
	}
	if resp.Type != MsgChunkDone {
		m.err = fmt.Errorf("transport: replica %d: reply type %d to run chunk", m.id, resp.Type)
		return nil, nil, m.err
	}
	losses, grads, err := m.decodeChunkDone(resp.Data, len(micros))
	if err != nil {
		m.err = fmt.Errorf("transport: replica %d: %w", m.id, err)
		return nil, nil, m.err
	}
	return losses, grads, nil
}

// chunkRoundTrip is roundTrip for the one long-running request. Without
// a straggler deadline it is roundTrip exactly. With one, the reply wait
// runs in a helper goroutine and the main flow watches deadline windows
// of sdl: each expired window counts one miss (cumulative across chunks;
// a reply inside its chunk's first window resets the count), and when
// the count reaches sk the member is handed back to the engine for
// demotion — the error wraps replica.ErrStraggler and does NOT poison
// the member, because the peer is alive and its late reply still
// arrives. The helper goroutine stays behind as the drainer: it consumes
// that late reply, discards it (the minibatch replays without this
// member), and marks the standby ready to rejoin.
//
// The deadline deliberately never cancels the underlying Recv: a
// cancelled read could lose an already-framed late reply, making both
// "late but correct" delivery and the drain impossible.
func (m *RemoteMember) chunkRoundTrip(ctx context.Context, req Msg) (Msg, error) {
	if m.sdl <= 0 || m.sk <= 0 {
		return m.roundTrip(ctx, req)
	}
	t0 := m.tk.Now()
	if err := m.send(ctx, req); err != nil {
		return Msg{}, err
	}
	ch := make(chan wireReply, 1)
	go func() {
		msg, err := m.recvReply(ctx)
		ch <- wireReply{msg, err}
	}()
	late := false
	for {
		t := time.NewTimer(m.sdl)
		select {
		case r := <-ch:
			t.Stop()
			if r.err != nil {
				return Msg{}, r.err
			}
			if !late {
				m.misses = 0
			}
			if r.msg.Type == MsgErr {
				return Msg{}, decodeWireErr(r.msg.Data)
			}
			m.tk.Span(wireName(req.Type), t0, int(req.Stage), -1, int64(req.PayloadLen()+r.msg.PayloadLen()))
			return r.msg, nil
		case <-t.C:
			late = true
			m.misses++
			if m.misses >= m.sk {
				m.ready = false
				m.draining = true
				go m.drain(ch)
				return Msg{}, fmt.Errorf("%w: replica %d missed %d consecutive %v deadlines", replica.ErrStraggler, m.id, m.sk, m.sdl)
			}
		}
	}
}

type wireReply struct {
	msg Msg
	err error
}

// drain runs after a demotion: it waits out the straggler's in-flight
// reply (the recvReply goroutine chunkRoundTrip left behind), discards
// the payload — the interrupted minibatch replays over the survivors, so
// the late result must not be used — and marks the standby ready. A
// drain that ends in a transport error latches it instead, so the
// group drops the standby.
func (m *RemoteMember) drain(ch chan wireReply) {
	r := <-ch
	m.mu.Lock()
	m.draining = false
	if r.err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("transport: replica %d: drain: %w", m.id, r.err)
		}
	} else {
		m.ready = true
	}
	m.mu.Unlock()
}

func (m *RemoteMember) decodeChunkDone(data []byte, wantK int) ([]float64, [][][]*tensor.Tensor, error) {
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
	if c.err == nil && (nl != wantK || k != wantK || p != m.stages) {
		return nil, nil, fmt.Errorf("chunk reply shape %d losses/%d micros/%d stages, want %d/%d/%d", nl, k, p, wantK, wantK, m.stages)
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
// this owner as a pure copy over the wire.
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

// BeginStep advances the worker replica's step clocks.
func (m *RemoteMember) BeginStep() {
	m.call(Msg{Type: MsgBeginStep, Stage: -1}, MsgAck)
}

// ScaleStage applies the clip factor to the stage's gradients remotely.
func (m *RemoteMember) ScaleStage(stage int, scale float64) {
	m.call(m.stageMsg(MsgScale, stage, AppendF64(nil, scale)), MsgAck)
}

// StepStage applies the optimizer update for the stage remotely.
func (m *RemoteMember) StepStage(stage int) {
	m.call(m.stageMsg(MsgStep, stage, nil), MsgAck)
}

// FinishStage finalizes the stage's step remotely.
func (m *RemoteMember) FinishStage(stage int) {
	m.call(m.stageMsg(MsgFinish, stage, nil), MsgAck)
}

// StageState fetches the stage's post-step state from the worker into a
// per-stage reuse buffer. replica.Group reads each owner's state from a
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

// ImportStageState ships an owner's post-step stage state to the worker,
// which imports it and pushes its version queue.
func (m *RemoteMember) ImportStageState(stage int, src []*tensor.Tensor) {
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

// SetEpoch pushes the leader's epoch clock to the worker.
func (m *RemoteMember) SetEpoch(epoch int) {
	m.call(Msg{Type: MsgSyncEpoch, Stage: -1, Data: AppendU32(nil, uint32(epoch))}, MsgAck)
}

// SetStep pushes the leader's step clock to the worker — the tail of a
// full-state push, after the per-stage MsgSetState imports.
func (m *RemoteMember) SetStep(step int) {
	m.call(Msg{Type: MsgSync, Stage: -1, Data: AppendU32(nil, uint32(step))}, MsgAck)
}

func (m *RemoteMember) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = fmt.Errorf("transport: replica %d: %w", m.id, err)
	}
	m.mu.Unlock()
}

var _ replica.Remote = (*RemoteMember)(nil)
