package transport

import (
	"context"
	"fmt"

	"pipemare/internal/engine"
)

// Mid-run join protocol. A fresh worker dials a *running* leader and
// announces its capabilities (MsgJoin); the leader parks the connection
// until the next minibatch boundary — the only point with no optimizer
// state in flight — then either rejects (MsgErr) or admits: it sends the
// full Spec (MsgWelcome), the worker builds its follower and confirms
// (MsgJoinOK), and the leader performs the live state handoff over the
// ordinary member surface (MsgSyncEpoch, a MsgSetState per stage, MsgSync,
// a MsgSetRing per stage) before growing the reduce tree. Unlike the
// MsgHello handshake, the Welcome spec carries no state checksum: the
// joiner's initial state is irrelevant because every tensor it will train
// from arrives in the handoff.

// JoinSpec is what a joiner announces in MsgJoin: the task shape it was
// built for. The leader rejects a mismatch (wrong stage count, method or
// technique flags) instead of letting the curves diverge, and parks the
// joiner until its requested join step, if any.
type JoinSpec struct {
	Stages int  // pipeline stage count the joiner resolved
	Method int  // core.Method the joiner trains with
	T2     bool // whether Technique 2 state is part of its stage state
	JoinAt int  // earliest leader step to admit at (0 = next boundary)
}

func (s JoinSpec) encode() []byte {
	b := AppendU32(nil, uint32(s.Stages))
	b = AppendU32(b, uint32(s.Method))
	b = AppendBool(b, s.T2)
	b = AppendU32(b, uint32(s.JoinAt))
	return b
}

func decodeJoinSpec(data []byte) (JoinSpec, error) {
	c := NewCursor(data)
	s := JoinSpec{
		Stages: c.I32(),
		Method: c.I32(),
		T2:     c.Bool(),
		JoinAt: c.I32(),
	}
	if err := c.Done(); err != nil {
		return JoinSpec{}, fmt.Errorf("bad join request: %w", err)
	}
	return s, nil
}

// AcceptJoin reads a parked connection's join request — the leader's
// accept loop calls it once per joiner, before parking the connection
// until the next minibatch boundary.
func AcceptJoin(ctx context.Context, conn MsgConn) (JoinSpec, error) {
	req, err := conn.Recv(ctx)
	if err != nil {
		return JoinSpec{}, fmt.Errorf("transport: join: %w", err)
	}
	if req.Type != MsgJoin {
		return JoinSpec{}, fmt.Errorf("transport: join: first message type %d, want join", req.Type)
	}
	return decodeJoinSpec(req.Data)
}

// RejectJoin tells a parked joiner it cannot be admitted (capability
// mismatch, replica cap reached) and why. Best effort; the caller closes
// the connection either way.
func RejectJoin(ctx context.Context, conn MsgConn, reason string) {
	conn.Send(ctx, Msg{Type: MsgErr, Stage: -1, Data: appendWireErr(nil, errGeneric, reason)})
}

// Welcome admits a parked joiner at a minibatch boundary: it sends the
// full Spec (the joiner's group position, topology, clocks, fault tolerance)
// and waits for MsgJoinOK, returning the member proxy ready for the
// state handoff. The caller parks it in the replica group — which gives
// it its stable id — and activates it only after the handoff succeeds.
func Welcome(ctx context.Context, conn MsgConn, spec Spec) (*RemoteMember, error) {
	m := newMember(conn, spec)
	resp, err := m.roundTrip(ctx, Msg{Type: MsgWelcome, Replica: uint16(spec.Replica), Stage: -1, Data: spec.encode()})
	if err != nil {
		return nil, fmt.Errorf("transport: welcoming a joiner at position %d: %w", spec.Replica, err)
	}
	if resp.Type != MsgJoinOK {
		return nil, fmt.Errorf("transport: welcoming a joiner at position %d: unexpected reply type %d", spec.Replica, resp.Type)
	}
	return m, nil
}

// ServeJoin is the worker side of a mid-run join: it announces cap over
// an established connection to a running leader, waits — arbitrarily
// long; admission happens at a minibatch boundary of the leader's
// choosing — for the Welcome spec, builds the local follower from it,
// confirms, and enters the ordinary serve loop. The first requests the
// loop sees are the leader's state handoff.
func ServeJoin(ctx context.Context, conn MsgConn, cap JoinSpec, build Builder, inner engine.Engine) error {
	if err := conn.Send(ctx, Msg{Type: MsgJoin, Stage: -1, Data: cap.encode()}); err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	if resp.Type == MsgErr {
		return fmt.Errorf("transport: join rejected: %w", decodeWireErr(resp.Data))
	}
	if resp.Type != MsgWelcome {
		return fmt.Errorf("transport: join: reply type %d, want welcome", resp.Type)
	}
	spec, err := decodeSpec(resp.Data)
	if err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	if inner == nil {
		inner = engine.NewReference()
	}
	s := &server{conn: conn, inner: inner, replica: uint16(spec.Replica), hb: spec.Heartbeat}
	member, err := build(spec)
	if err != nil {
		return s.reject(ctx, "join", fmt.Errorf("building follower: %w", err))
	}
	// No checksum: the joiner's state is fully replaced by the handoff.
	// The clocks still align here so the follower is consistent the
	// moment the serve loop starts.
	if err := s.adopt(member, spec, false); err != nil {
		return s.reject(ctx, "join", err)
	}
	if err := s.reply(ctx, Msg{Type: MsgJoinOK, Stage: -1}); err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	return s.serve(ctx)
}
