package transport

import (
	"errors"
	"time"
)

// Error taxonomy. A wire operation fails in one of two ways, and a third
// is detected rather than returned. The heartbeat cadence is the one
// window of a reply wait (RemoteMember.awaitReply), and both detections
// count it:
//
//   - fatal: any I/O, framing or worker error. Once a request may have
//     reached the peer its state is unknown, so nothing is resent: the
//     member latches the error and is evicted, or the run aborts.
//   - straggler: an armed chunk's reply missed k consecutive windows
//     (replica.ErrStraggler), whether pings arrived or not. The member is
//     demoted, not poisoned, and rejoins once its late reply drains; a
//     drain that fails (a hung peer's ErrPeerTimeout) drops it instead.
//   - hang: a peer that sends no reply and no ping for heartbeatMisses
//     windows (ErrPeerTimeout) is fatal like any other failure.
//
// A diverged chunk is not a failure at all: it is a normal reply, mapped
// back to engine.ErrDiverged.

// ErrPeerTimeout reports a peer that stopped heartbeating: no reply and
// no MsgPing for heartbeatMisses windows. The peer is presumed hung or
// dead; the connection is unusable.
var ErrPeerTimeout = errors.New("transport: peer heartbeat timeout")

// DefaultHeartbeat is the worker→leader liveness interval during chunk
// compute of a fault-tolerant run that does not set one. A peer silent
// for heartbeatMisses intervals is declared hung.
const (
	DefaultHeartbeat = time.Second
	heartbeatMisses  = 10
)
