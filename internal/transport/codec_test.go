package transport

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"pipemare/internal/tensor"
)

// stateList is a StateSource over literal per-stage tensor lists.
type stateList [][]*tensor.Tensor

func (s stateList) StageState(stage int) []*tensor.Tensor { return s[stage] }

// mixedState is five stages of mixed float64/float32 tensors with
// arch-independent values (one IEEE division each); stage 3 is empty.
func mixedState() stateList {
	var s stateList
	for st := 0; st < 5; st++ {
		a := tensor.NewOf(tensor.Float64, st+1, 2)
		for i := 0; i < a.Size(); i++ {
			a.SetFlat(i, float64(st*10+i)/7)
		}
		b := tensor.NewOf(tensor.Float32, 3)
		for i, bd := 0, tensor.F32(b); i < len(bd); i++ {
			bd[i] = float32(st+i) / 3
		}
		s = append(s, []*tensor.Tensor{a, b})
	}
	s[3] = nil
	return s
}

// TestStateChecksumIsCRCOfEncoding pins what the handshake checksum is —
// the CRC-32 of each stage's AppendTensors bytes, stage after stage — and
// that its value is the one the hand-rolled hash it replaced produced
// (recorded at that commit), so a leader and a worker on either side of
// the change still agree.
func TestStateChecksumIsCRCOfEncoding(t *testing.T) {
	s := mixedState()
	var enc []byte
	for st := range s {
		enc = AppendTensors(enc, s[st])
	}
	got := StateChecksum(s, len(s))
	if want := crc32.ChecksumIEEE(enc); got != want {
		t.Fatalf("StateChecksum %#08x, CRC-32 of the encoding %#08x", got, want)
	}
	if got != parentChecksum {
		t.Fatalf("StateChecksum %#08x, the previous implementation gave %#08x", got, parentChecksum)
	}
	tensor.F32(s[4][1])[2]++
	if StateChecksum(s, len(s)) == got {
		t.Fatal("checksum blind to a changed float32 element")
	}
}

// parentChecksum is StateChecksum(mixedState()) as computed by the
// element-by-element CRC loops this implementation replaced.
const parentChecksum = 0x41d6418f

// FuzzCursor feeds arbitrary bytes to every payload decoder — the tensor
// list, the ring, the hello spec and the join spec — seeded with real
// payloads of each. The contract is error or success, never a panic, and
// never an allocation out of proportion to the input: a corrupt count or
// dimension must be refused before it sizes a buffer. A tensor list that
// decodes re-encodes to the same bytes: there is one codec.
func FuzzCursor(f *testing.F) {
	s := mixedState()
	f.Add(AppendTensors(nil, s[0]))
	f.Add(AppendTensors(nil, nil))
	f.Add(RingMsg(MsgSetRing, 0, 3, [][]*tensor.Tensor{s[1], s[2]}).Payload())
	f.Add(Spec{Replica: 1, Replicas: 2, Stages: 4, Method: 2, T2: true, Sharded: true, Step: 7, Epoch: 1,
		Checksum: parentChecksum, GroupCosts: []float64{1, 2.5, 3, 4}, FT: true, Heartbeat: time.Second}.encode())
	f.Add(JoinSpec{Stages: 4, Method: 2, T2: true, JoinAt: 9}.encode())
	f.Add([]byte{})
	// Payloads that cross the wire in several frames: a tensor larger than
	// one, and a chunk reply's shape — plain prefix, then list after list.
	big := tensor.NewOf(tensor.Float32, maxChunk/4+3)
	f.Add(AppendTensors(nil, []*tensor.Tensor{big, s[0][0]}))
	f.Add(Msg{Data: AppendU32(AppendF64(AppendU32(nil, 1), 2.5), 1), Lists: [][]*tensor.Tensor{s[1], {big}, nil}}.Payload())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewCursor(data)
		ts := c.TensorsInto(nil)
		tsErr := c.Done()
		c = NewCursor(data)
		c.Ring()
		c.Done()
		decodeSpec(data)
		decodeJoinSpec(data)
		runtime.ReadMemStats(&after)
		// A scalar tensor costs 9 input bytes and one Tensor value; 64
		// bytes per input byte plus the fuzz worker's own background
		// allocations is far above that and far below a forged 2^30.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<16) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if tsErr == nil && !bytes.Equal(AppendTensors(nil, ts), data) {
			t.Fatalf("tensor list decoded from %x re-encodes differently", data)
		}
	})
}
