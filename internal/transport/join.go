package transport

import (
	"context"
	"fmt"
)

// Mid-run join protocol. A fresh worker dials a *running* leader and asks
// to be admitted (MsgJoin, whose payload is the earliest leader step to
// admit it at); the leader parks the connection until a minibatch boundary
// at or past that step — the only point with no optimizer state in flight
// — and then admits it exactly as it admits a worker it dialled at launch:
// MsgHello with the Spec, the worker's MsgHelloOK or MsgErr (ServeConn),
// and the live state handoff. Only the first message differs.

// AcceptJoin reads a parked connection's join request and returns the
// step it asked to be admitted at — the leader's accept path calls it once
// per joiner, before parking the connection until that boundary.
func AcceptJoin(ctx context.Context, conn MsgConn) (joinAt int, err error) {
	req, err := conn.Recv(ctx)
	if err != nil {
		return 0, fmt.Errorf("transport: join: %w", err)
	}
	if req.Type != MsgJoin {
		return 0, fmt.Errorf("transport: join: first message type %d, want join", req.Type)
	}
	return decodeJoin(req.Data)
}

func decodeJoin(data []byte) (int, error) {
	c := NewCursor(data)
	joinAt := c.I32()
	if err := c.Done(); err != nil {
		return 0, fmt.Errorf("bad join request: %w", err)
	}
	return joinAt, nil
}

// RejectJoin tells a parked joiner it cannot be admitted (the replica cap
// is reached) and why. Best effort; the caller closes the connection
// either way.
func RejectJoin(ctx context.Context, conn MsgConn, reason string) {
	conn.Send(ctx, Msg{Type: MsgErr, Stage: -1, Data: appendWireErr(nil, errGeneric, reason)})
}

// ServeJoin is the worker side of a mid-run join: it asks a running leader
// to admit it no earlier than step joinAt, then runs the ordinary session
// (ServeConn) over the connection. The wait for the leader's MsgHello is
// arbitrarily long — admission happens at a minibatch boundary of the
// leader's choosing — and bounded only by ctx.
func ServeJoin(ctx context.Context, conn MsgConn, joinAt int, build Builder) error {
	if err := conn.Send(ctx, Msg{Type: MsgJoin, Stage: -1, Data: AppendU32(nil, uint32(joinAt))}); err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	return ServeConn(ctx, conn, build)
}
