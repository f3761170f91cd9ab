package transport

import (
	"fmt"
	"hash/crc32"
	"time"

	"pipemare/internal/tensor"
)

// Spec is the handshake the leader announces in MsgHello: everything the
// worker must agree on for the distributed curves to stay bit-identical
// to the in-process ones. The worker rebuilds its follower from its own
// task and options, then verifies the spec — replica identity, topology,
// method, technique flags, clocks, and a checksum over the
// leader's initial per-stage state — so a seed, partition or
// configuration mismatch between the processes fails the handshake
// instead of silently diverging the curves.
type Spec struct {
	Replica  int  // which follower this connection hosts (1 ≤ Replica < Replicas)
	Replicas int  // total replica count R
	Stages   int  // resolved pipeline stage count P
	Method   int  // core.Method the leader trains with
	T2       bool // whether Technique 2 state (δ, corrected) is part of stage state
	Sharded  bool // always true: the replica-sharded commit (workers refuse the leader-serial false an older leader sent)
	Step     int  // leader's optimizer step clock at handshake (0 for a fresh run)
	Epoch    int  // leader's epoch clock at handshake
	// Checksum is StateChecksum over the leader's initial per-stage
	// state; the worker's follower must hash identically.
	Checksum uint32
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
	b = AppendBool(b, s.Sharded)
	b = AppendU32(b, uint32(s.Step))
	b = AppendU32(b, uint32(s.Epoch))
	b = AppendU32(b, s.Checksum)
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
		Sharded:  c.Bool(),
		Step:     c.I32(),
		Epoch:    c.I32(),
		Checksum: c.U32(),
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

// StateSource is the per-stage state surface the checksum reads.
// replica.Member satisfies it.
type StateSource interface {
	StageState(stage int) []*tensor.Tensor
}

// StateChecksum hashes a member's per-stage state — a CRC-32 over the
// AppendTensors encoding of each stage in turn, so dtype tags, shapes and
// raw float bits all count. Leader and worker compute it over their
// respective initial states during the handshake; equality means the two
// processes built bitwise-identical replicas, and a float32 leader paired
// with a float64 worker (or vice versa) fails the handshake before any
// state flows.
func StateChecksum(m StateSource, stages int) uint32 {
	crc := uint32(0)
	var buf []byte
	for st := 0; st < stages; st++ {
		buf = AppendTensors(buf[:0], m.StageState(st))
		crc = crc32.Update(crc, crcTable, buf)
	}
	return crc
}
