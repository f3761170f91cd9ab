package transport

import (
	"fmt"
	"time"
)

// Spec is what the leader announces in MsgHello, the first message of
// every session — to a worker it dialled at launch and to a joiner it
// admits mid-run alike: what the transport itself reads (the follower's
// group position, the replica and stage counts, the heartbeat cadence)
// and the leader's resolved training recipe, which the transport carries
// as opaque bytes for the Builder (core.NewFollower) to build the
// follower from. Nothing in it describes state: every tensor and clock the
// follower trains from arrives afterwards in the leader's state handoff,
// which refuses a follower of another stage layout or dtype by name.
type Spec struct {
	Replica  int // the follower's group position (1 ≤ Replica < Replicas)
	Replicas int // total replica count R
	Stages   int // resolved pipeline stage count P
	// Heartbeat is the worker→leader liveness interval during chunk
	// compute, and the window of the leader's reply wait; 0 disables
	// heartbeats.
	Heartbeat time.Duration
	// Recipe is the leader's encoded training recipe (internal/core).
	Recipe []byte
}

func (s Spec) encode() []byte {
	b := AppendU32(nil, uint32(s.Replica))
	b = AppendU32(b, uint32(s.Replicas))
	b = AppendU32(b, uint32(s.Stages))
	b = AppendU64(b, uint64(s.Heartbeat))
	b = AppendU32(b, uint32(len(s.Recipe)))
	return append(b, s.Recipe...)
}

func decodeSpec(data []byte) (Spec, error) {
	c := NewCursor(data)
	s := Spec{
		Replica:   c.I32(),
		Replicas:  c.I32(),
		Stages:    c.I32(),
		Heartbeat: time.Duration(c.U64()),
	}
	s.Recipe = append([]byte(nil), c.take(c.Count(1))...)
	if err := c.Done(); err != nil {
		return Spec{}, fmt.Errorf("bad hello: %w", err)
	}
	return s, nil
}
