package transport

import (
	"errors"
	"time"
)

// Error taxonomy. A wire operation fails in one of two ways, and a third
// is detected rather than returned:
//
//   - fatal: any I/O, framing or worker error. Once a request may have
//     reached the peer its state is unknown, so nothing is resent: the
//     member latches the error and is evicted, or the run aborts.
//   - straggler: an armed chunk missed its deadline windows
//     (replica.ErrStraggler). The peer is alive, so the member is demoted,
//     not poisoned, and rejoins once its late reply drains.
//   - hang: a peer that neither replies nor pings within the heartbeat
//     window (ErrPeerTimeout) is fatal like any other failure.
//
// A diverged chunk is not a failure at all: it is a normal reply, mapped
// back to engine.ErrDiverged.

// ErrPeerTimeout reports a peer that stopped heartbeating: no reply and
// no MsgPing within the heartbeat window. The peer is presumed hung or
// dead; the connection is unusable.
var ErrPeerTimeout = errors.New("transport: peer heartbeat timeout")

// DefaultHeartbeat is the worker→leader liveness interval during chunk
// compute when the facade doesn't override it. The miss budget is
// heartbeatMisses intervals: a peer silent for longer is declared hung.
const (
	DefaultHeartbeat = time.Second
	heartbeatMisses  = 10
)
