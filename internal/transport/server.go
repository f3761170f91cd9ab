package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pipemare/internal/engine"
	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// Builder constructs (or verifies) the worker's local follower member
// for the spec the leader announced — typically core.NewFollower over a
// task the worker rebuilt from the same seed and options as the leader.
// It runs after MsgHello, so a spec-dependent configuration (replica id,
// replica count, commit mode, pinned partition costs) needs no worker
// flags.
type Builder func(spec Spec) (replica.Local, error)

// Serve accepts one leader connection on lis and serves it until the
// leader says goodbye, the connection drops, or ctx ends. inner is the
// engine that drives the follower's microbatch chunks (nil means the
// serial Reference engine) — the worker-process counterpart of the
// replicated engine's per-replica inner engines.
func Serve(ctx context.Context, lis Listener, build Builder, inner engine.Engine) error {
	conn, err := lis.Accept(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	return ServeConn(ctx, conn, build, inner)
}

// ServeConn serves one established leader connection (see Serve).
func ServeConn(ctx context.Context, conn MsgConn, build Builder, inner engine.Engine) error {
	if inner == nil {
		inner = engine.NewReference()
	}
	s := &server{conn: conn, inner: inner}
	if err := s.handshake(ctx, build); err != nil {
		return err
	}
	return s.serve(ctx)
}

// serve runs the post-handshake session body — shared by the MsgHello
// path (ServeConn) and the join path (ServeJoin): wrap the adopted
// member for chunk execution, start the inner engine's lifecycle, and
// enter the request loop.
func (s *server) serve(ctx context.Context) error {
	s.comp = replica.NewCompute(s.member)
	if lc, ok := s.inner.(engine.Lifecycle); ok {
		lc.Start(s.comp)
		defer lc.Stop()
	}
	return s.loop(ctx)
}

type server struct {
	conn   MsgConn
	inner  engine.Engine
	member replica.Local
	comp   *replica.Compute

	replica uint16
	hb      time.Duration // heartbeat interval from the leader's spec (0 = off)
	micros  [][]int       // RunChunk decode buffer
	scratch []byte        // reply prefix buffer (a reply's tensors are framed from storage)
	// Per-stage decode targets of MsgSetGrads and MsgSetState: the member
	// copies out of them before the call returns, so each step's tensors
	// land in the last step's.
	grads, states [][]*tensor.Tensor
	lists         [][]*tensor.Tensor // a reply's tensor lists (MsgChunkDone: micro-major)
}

func (s *server) reply(ctx context.Context, m Msg) error {
	m.Replica = s.replica
	return s.conn.Send(ctx, m)
}

func (s *server) replyErr(ctx context.Context, code uint32, text string) error {
	return s.reply(ctx, Msg{Type: MsgErr, Stage: -1, Data: appendWireErr(nil, code, text)})
}

// reject refuses the session in the named phase (handshake, join): the
// leader is told why, and the same reason is returned.
func (s *server) reject(ctx context.Context, phase string, err error) error {
	s.replyErr(ctx, errGeneric, err.Error())
	return fmt.Errorf("transport: %s: %w", phase, err)
}

// adopt takes the follower built for the leader's spec into the session:
// it verifies the stage count (and, for a handshake that carries one, the
// initial-state checksum) and aligns its clocks.
func (s *server) adopt(member replica.Local, spec Spec, checksum bool) error {
	if got := member.Stages(); got != spec.Stages {
		return fmt.Errorf("follower has %d stages, leader has %d", got, spec.Stages)
	}
	if checksum {
		if got := StateChecksum(member, spec.Stages); got != spec.Checksum {
			return fmt.Errorf("initial state checksum %#08x differs from leader's %#08x (seed, task or partition mismatch)", got, spec.Checksum)
		}
	}
	s.member = member
	s.grads = make([][]*tensor.Tensor, spec.Stages)
	s.states = make([][]*tensor.Tensor, spec.Stages)
	member.SetStep(spec.Step)
	member.SetEpoch(spec.Epoch)
	return nil
}

// handshake reads MsgHello, builds the follower from the spec, verifies
// topology and the initial-state checksum, aligns the clocks, and
// acknowledges. A mismatch is reported to the leader and returned.
func (s *server) handshake(ctx context.Context, build Builder) error {
	req, err := s.conn.Recv(ctx)
	if err != nil {
		return fmt.Errorf("transport: handshake: %w", err)
	}
	if req.Type != MsgHello {
		return fmt.Errorf("transport: handshake: first message type %d, want hello", req.Type)
	}
	s.replica = req.Replica
	spec, err := decodeSpec(req.Data)
	if err != nil {
		return s.reject(ctx, "handshake", err)
	}
	if spec.Replica < 1 || spec.Replica >= spec.Replicas {
		return s.reject(ctx, "handshake", fmt.Errorf("replica %d out of range for %d replicas", spec.Replica, spec.Replicas))
	}
	s.hb = spec.Heartbeat
	member, err := build(spec)
	if err != nil {
		return s.reject(ctx, "handshake", fmt.Errorf("building follower: %w", err))
	}
	if err := s.adopt(member, spec, true); err != nil {
		return s.reject(ctx, "handshake", err)
	}
	if err := s.reply(ctx, Msg{Type: MsgHelloOK, Stage: -1}); err != nil {
		return fmt.Errorf("transport: handshake: %w", err)
	}
	return nil
}

// loop is the request/response serve loop. Member operations run under a
// panic guard: a malformed message (bad stage index, wrong tensor count)
// becomes an error reply and a clean return, never a worker crash.
func (s *server) loop(ctx context.Context) error {
	for {
		req, err := s.conn.Recv(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("transport: serve: %w", err)
		}
		if req.Type == MsgBye {
			return nil
		}
		resp, fatal := s.dispatch(ctx, req)
		if fatal != nil {
			s.replyErr(ctx, errGeneric, fatal.Error())
			return fmt.Errorf("transport: serve: %w", fatal)
		}
		if err := s.reply(ctx, resp); err != nil {
			return fmt.Errorf("transport: serve: %w", err)
		}
	}
}

// dispatch handles one request, returning the reply or a fatal error.
func (s *server) dispatch(ctx context.Context, req Msg) (resp Msg, fatal error) {
	defer func() {
		if r := recover(); r != nil {
			fatal = fmt.Errorf("request type %d: %v", req.Type, r)
		}
	}()
	ack := Msg{Type: MsgAck, Stage: req.Stage}
	stage := int(req.Stage)
	c := NewCursor(req.Data)
	switch req.Type {
	case MsgRunChunk:
		return s.runChunk(ctx, c)
	case MsgSetGrads:
		s.grads[stage] = c.TensorsInto(s.grads[stage])
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.SetStageGrads(stage, s.grads[stage])
		return ack, nil
	case MsgPrepare:
		nMicro := c.I32()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		sumSq := s.member.PrepareStage(stage, nMicro)
		return Msg{Type: MsgPrepared, Stage: req.Stage, Data: AppendF64(s.scratch[:0], sumSq)}, nil
	case MsgBeginStep:
		s.member.BeginStep()
		return ack, nil
	case MsgScale:
		scale := c.F64()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.ScaleStage(stage, scale)
		return ack, nil
	case MsgStep:
		s.member.StepStage(stage)
		return ack, nil
	case MsgFinish:
		s.member.FinishStage(stage)
		return ack, nil
	case MsgGetState:
		state := s.member.StageState(stage)
		s.lists = append(s.lists[:0], state)
		return Msg{Type: MsgState, Stage: req.Stage, Lists: s.lists}, nil
	case MsgSetState:
		s.states[stage] = c.TensorsInto(s.states[stage])
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.ImportStageState(stage, s.states[stage])
		return ack, nil
	case MsgSetRing:
		base, snaps := c.Ring()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.RestoreVersions(stage, base, snaps)
		return ack, nil
	case MsgSyncEpoch:
		epoch := c.I32()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.SetEpoch(epoch)
		return ack, nil
	case MsgSync:
		step := c.I32()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.SetStep(step)
		return ack, nil
	}
	return Msg{}, fmt.Errorf("unknown request type %d", req.Type)
}

// runChunk decodes a chunk request, drives it through the inner engine
// against the follower's compute wrapper, and encodes the losses and
// exported gradients back. A diverged chunk replies errDiverged — a
// normal outcome the leader maps back to engine.ErrDiverged — without
// ending the session.
func (s *server) runChunk(ctx context.Context, c *Cursor) (Msg, error) {
	start := c.I32()
	async := c.Bool()
	k := c.Count(4)
	if cap(s.micros) < k {
		s.micros = make([][]int, k)
	}
	micros := s.micros[:k]
	for i := range micros {
		n := c.Count(4)
		if cap(micros[i]) < n {
			micros[i] = make([]int, n)
		}
		micros[i] = micros[i][:n]
		for j := range micros[i] {
			micros[i][j] = c.I32()
		}
	}
	if err := c.Done(); err != nil {
		return Msg{}, err
	}
	s.comp.BeginChunk(start, k, async)
	// While the chunk computes — the one long-running request — a pinger
	// streams MsgPing so the leader can tell "slow" from "hung". It is
	// stopped and joined before the reply is encoded: Conn is not safe
	// for concurrent use, so the pinger must never overlap another Send.
	stopPing := func() {}
	if s.hb > 0 {
		pctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go s.ping(pctx, done)
		stopPing = func() { cancel(); <-done }
	}
	_, err := s.inner.Minibatch(ctx, s.comp, micros)
	stopPing()
	if err != nil {
		if errors.Is(err, engine.ErrDiverged) {
			data := AppendU32(s.scratch[:0], errDiverged)
			return Msg{Type: MsgErr, Stage: -1, Data: data}, nil
		}
		return Msg{}, fmt.Errorf("chunk failed: %w", err)
	}
	losses := s.comp.Losses()
	grads := s.comp.Grads()
	b := AppendU32(s.scratch[:0], uint32(len(losses)))
	for _, l := range losses {
		b = AppendF64(b, l)
	}
	b = AppendU32(b, uint32(len(grads)))
	b = AppendU32(b, uint32(s.member.Stages()))
	s.scratch = b
	s.lists = s.lists[:0]
	for _, micro := range grads {
		s.lists = append(s.lists, micro...)
	}
	return Msg{Type: MsgChunkDone, Stage: -1, Data: b, Lists: s.lists}, nil
}

// ping streams heartbeats at the spec'd interval until ctx ends.
func (s *server) ping(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.hb)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := s.conn.Send(ctx, Msg{Type: MsgPing, Replica: s.replica, Stage: -1}); err != nil {
				return
			}
		}
	}
}
