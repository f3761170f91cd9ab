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

// Builder constructs the worker's local follower member for the spec the
// leader announced in MsgHello — core.NewFollower from the spec's recipe
// — or says why it cannot. What the leader decides thus needs no worker
// flags, and the leader's state handoff replaces the follower's state.
type Builder func(spec Spec) (replica.Local, error)

// Serve accepts one leader connection on lis and serves it until the
// leader says goodbye, the connection drops, or ctx ends. The follower's
// engine (replica.Local.Engine) drives its microbatch chunks, as an
// in-process follower's does.
func Serve(ctx context.Context, lis Listener, build Builder) error {
	conn, err := lis.Accept(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	return ServeConn(ctx, conn, build)
}

// ServeConn is the worker's one session function, however the connection
// came about (Serve accepted it; ServeJoin dialled it and asked to join):
// it reads the leader's MsgHello, builds the follower its spec asks for and
// answers MsgHelloOK — or MsgErr with the reason the spec cannot be served,
// which it also returns — then serves the leader's requests until the
// goodbye (nil), the connection drops, or ctx ends. The first requests are
// the leader's state handoff.
func ServeConn(ctx context.Context, conn MsgConn, build Builder) error {
	s := &server{conn: conn}
	if err := s.hello(ctx, build); err != nil {
		return err
	}
	s.comp = replica.NewCompute(s.member)
	return s.loop(ctx)
}

type server struct {
	conn   MsgConn
	member replica.Local
	comp   *replica.Compute

	replica uint16
	hb      time.Duration // heartbeat interval from the leader's spec (0 = off)
	micros  [][]int       // RunChunk decode buffer
	scratch []byte        // reply prefix buffer (a reply's tensors are framed from storage)
	// Per-stage decode targets of MsgSetGrads and MsgImport. The member
	// swaps a MsgSetGrads' tensors in as its accumulators and hands its
	// old ones back in their place, and copies out of the states before
	// the call returns, so each step's tensors land in buffers nothing
	// else holds. A handoff's stage record (MsgSetState) decodes into
	// tensors of its own: it arrives once per admission, not per step.
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

// hello reads the leader's MsgHello and builds the follower its spec asks
// for. A spec that cannot be served is answered MsgErr with the reason; a
// MsgErr in place of the hello is a joiner the leader will not admit.
func (s *server) hello(ctx context.Context, build Builder) error {
	req, err := s.conn.Recv(ctx)
	if err != nil {
		return fmt.Errorf("transport: hello: %w", err)
	}
	switch req.Type {
	case MsgHello:
	case MsgErr:
		return fmt.Errorf("transport: hello: %w", decodeWireErr(req.Data, "leader"))
	default:
		return fmt.Errorf("transport: hello: first message type %d, want hello", req.Type)
	}
	s.replica = req.Replica
	spec, err := decodeSpec(req.Data)
	if err == nil {
		s.hb = spec.Heartbeat
		s.member, err = build(spec)
	}
	if err != nil {
		s.replyErr(ctx, errGeneric, err.Error())
		return fmt.Errorf("transport: hello: %w", err)
	}
	s.grads = make([][]*tensor.Tensor, s.member.Stages())
	s.states = make([][]*tensor.Tensor, s.member.Stages())
	if err := s.reply(ctx, Msg{Type: MsgHelloOK, Stage: -1}); err != nil {
		return fmt.Errorf("transport: hello: %w", err)
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
	case MsgStep:
		scale := c.F64()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.StepStage(stage, scale)
		return ack, nil
	case MsgGetState:
		state := s.member.StageState(stage)
		s.lists = append(s.lists[:0], state)
		return Msg{Type: MsgState, Stage: req.Stage, Lists: s.lists}, nil
	case MsgImport:
		s.states[stage] = c.TensorsInto(s.states[stage])
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.ImportStageState(stage, s.states[stage])
		return ack, nil
	case MsgSetState:
		base, snaps, rest := c.Record()
		if err := c.Done(); err != nil {
			return Msg{}, err
		}
		s.member.SetStageState(stage, base, snaps, rest)
		return ack, nil
	}
	return Msg{}, fmt.Errorf("unknown request type %d", req.Type)
}

// runChunk decodes a chunk request, drives it through the follower's
// engine against its compute wrapper, and encodes the losses and
// exported gradients back — per microbatch, or chunk 0's one prefix,
// which EndChunk takes out of the accumulators whatever the outcome. A
// diverged chunk replies errDiverged — a normal outcome the leader maps
// back to engine.ErrDiverged — without ending the session.
func (s *server) runChunk(ctx context.Context, c *Cursor) (Msg, error) {
	start := c.I32()
	async := c.Bool()
	first := c.Bool()
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
	s.comp.BeginChunk(start, k, async, first)
	// While the chunk computes — the one long-running request — a pinger
	// streams MsgPing so the leader can tell "slow" from "hung". It is
	// stopped and joined before the chunk's reply, a panic's error reply
	// included, is sent: Conn is not safe for concurrent use, so the
	// pinger must never overlap another Send.
	if s.hb > 0 {
		pctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go s.ping(pctx, done)
		defer func() { cancel(); <-done }()
	}
	_, err := s.member.Engine().Stream(ctx, s.comp, [][][]int{micros}, nil)
	s.comp.EndChunk()
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
