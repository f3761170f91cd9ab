package transport

import (
	"fmt"
	"time"
)

// Spec is what the leader announces in MsgHello, the first message of
// every session — to a worker it dialled at launch and to a joiner it
// admits mid-run alike: the follower's group position and the topology,
// the method and technique flags the worker's own configuration must agree
// with, the pinned partition costs, and the fault-tolerance and heartbeat
// settings. The worker builds its follower from its own task and options
// plus the spec. Nothing in it describes state: every tensor and clock the
// follower trains from arrives afterwards in the leader's state handoff,
// which refuses a follower of another stage layout or dtype by name.
type Spec struct {
	Replica  int  // the follower's group position (1 ≤ Replica < Replicas)
	Replicas int  // total replica count R
	Stages   int  // resolved pipeline stage count P
	Method   int  // core.Method the leader trains with
	T2       bool // whether Technique 2 state (δ, corrected) is part of stage state
	// GroupCosts pins the leader's per-group partition costs so a
	// measured (profile) partition reproduces exactly on the worker.
	GroupCosts []float64
	// FT tells the worker the leader trains fault-tolerantly: followers
	// hold full optimizer moments (so stage state includes them and an
	// evicted member's shard survives on every peer).
	FT bool
	// Heartbeat is the worker→leader liveness interval during chunk
	// compute; 0 disables heartbeats.
	Heartbeat time.Duration
}

func (s Spec) encode() []byte {
	b := AppendU32(nil, uint32(s.Replica))
	b = AppendU32(b, uint32(s.Replicas))
	b = AppendU32(b, uint32(s.Stages))
	b = AppendU32(b, uint32(s.Method))
	b = AppendBool(b, s.T2)
	b = AppendU32(b, uint32(len(s.GroupCosts)))
	for _, c := range s.GroupCosts {
		b = AppendF64(b, c)
	}
	b = AppendBool(b, s.FT)
	b = AppendU64(b, uint64(s.Heartbeat))
	return b
}

func decodeSpec(data []byte) (Spec, error) {
	c := NewCursor(data)
	s := Spec{
		Replica:  c.I32(),
		Replicas: c.I32(),
		Stages:   c.I32(),
		Method:   c.I32(),
		T2:       c.Bool(),
	}
	n := c.Count(8)
	if n > 0 {
		s.GroupCosts = make([]float64, n)
		for i := range s.GroupCosts {
			s.GroupCosts[i] = c.F64()
		}
	}
	s.FT = c.Bool()
	s.Heartbeat = time.Duration(c.U64())
	if err := c.Done(); err != nil {
		return Spec{}, fmt.Errorf("bad hello: %w", err)
	}
	return s, nil
}
