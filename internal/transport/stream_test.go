package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// scalarAppendTensor is the element-at-a-time encoder of the wire's
// tensor layout — header big-endian, each element's IEEE-754 bits
// little-endian — kept as the block codec's oracle.
func scalarAppendTensor(dst []byte, t *tensor.Tensor) []byte {
	dst = append(dst, byte(t.DType()))
	dst = AppendU32(dst, uint32(len(t.Shape)))
	for _, d := range t.Shape {
		dst = AppendU32(dst, uint32(d))
	}
	if t.DType() == tensor.Float32 {
		for _, v := range tensor.F32(t) {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
		}
		return dst
	}
	for _, v := range tensor.F64(t) {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func scalarAppendTensors(dst []byte, ts []*tensor.Tensor) []byte {
	dst = AppendU32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = scalarAppendTensor(dst, t)
	}
	return dst
}

// awkward64 are the float64 bit patterns a careless conversion loses:
// signed zeros, denormals, infinities, quiet and signalling NaNs with
// payloads.
var awkward64 = []uint64{
	0, 1 << 63, 1, 1<<63 | 1, 0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001, 0x7fefffffffffffff,
}

// fillBits fills t with random bit patterns, the awkward ones first.
func fillBits(t *tensor.Tensor, rng *rand.Rand) {
	if t.DType() == tensor.Float64 {
		d := tensor.F64(t)
		for i := range d {
			if i < len(awkward64) {
				d[i] = math.Float64frombits(awkward64[i])
			} else {
				d[i] = math.Float64frombits(rng.Uint64())
			}
		}
		return
	}
	d := tensor.F32(t)
	for i := range d {
		if i < len(awkward64) {
			// The same classes at float32 width: sign, exponent and the low
			// mantissa bit carry over.
			b := awkward64[i]
			d[i] = math.Float32frombits(uint32(b>>32) | uint32(b&1))
		} else {
			d[i] = math.Float32frombits(rng.Uint32())
		}
	}
}

// sameBits reports whether two tensors agree in dtype, shape and every
// element's bit pattern (NaN payloads included).
func sameBits(a, b *tensor.Tensor) bool {
	if a.DType() != b.DType() || len(a.Shape) != len(b.Shape) || a.Size() != b.Size() {
		return false
	}
	for i, d := range a.Shape {
		if b.Shape[i] != d {
			return false
		}
	}
	if a.DType() == tensor.Float32 {
		for i, v := range tensor.F32(a) {
			if math.Float32bits(v) != math.Float32bits(tensor.F32(b)[i]) {
				return false
			}
		}
		return true
	}
	for i, v := range tensor.F64(a) {
		if math.Float64bits(v) != math.Float64bits(tensor.F64(b)[i]) {
			return false
		}
	}
	return true
}

// codecShapes covers ranks 0–4, element counts around the 8-element block
// boundaries, an empty tensor, and one tensor larger than a frame.
var codecShapes = [][]int{
	{}, {1}, {7}, {8}, {9}, {0}, {3, 0}, {1, 1, 1, 1}, {2, 3, 5}, {17, 31}, {maxChunk/8 + 1000},
}

// TestBlockCodecMatchesScalarOracle pins that the block codec changed no
// byte: for every shape and dtype, on awkward and random bit patterns, it
// encodes exactly what the element-at-a-time encoder did, and the decode
// returns every bit — into nothing, into a matching buffer (reused, not
// reallocated) and into a mismatched one (replaced).
func TestBlockCodecMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var list []*tensor.Tensor
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		for _, shape := range codecShapes {
			src := tensor.NewOf(dt, shape...)
			fillBits(src, rng)
			want := scalarAppendTensor(nil, src)
			junk := []byte("prefix")
			got := AppendTensor(junk, src)
			if !bytes.Equal(got[len(junk):], want) || !bytes.Equal(got[:len(junk)], junk) {
				t.Fatalf("%v %v: block encoding differs from the scalar oracle", dt, shape)
			}
			if tensorLen(src) != len(want) {
				t.Fatalf("%v %v: tensorLen %d, encoding has %d bytes", dt, shape, tensorLen(src), len(want))
			}
			if src.Size() == 0 {
				// A zero dimension has never decoded; it still must not.
				if c := NewCursor(want); c.tensorInto(nil) != nil || c.Done() == nil {
					t.Fatalf("%v %v: an empty tensor decoded", dt, shape)
				}
				continue
			}
			list = append(list, src)
			match := tensor.NewOf(dt, shape...)
			other := tensor.NewOf(tensor.Float32-dt, append([]int{2}, shape...)...)
			for name, buf := range map[string]*tensor.Tensor{"nil": nil, "matching": match, "mismatched": other} {
				c := NewCursor(want)
				dec := c.tensorInto(buf)
				if err := c.Done(); err != nil {
					t.Fatalf("%v %v into %s: %v", dt, shape, name, err)
				}
				if !sameBits(dec, src) {
					t.Fatalf("%v %v into %s: decoded bits differ", dt, shape, name)
				}
				if (dec == buf) != (name == "matching") {
					t.Fatalf("%v %v into %s: reused = %t", dt, shape, name, dec == buf)
				}
			}
		}
	}
	want := scalarAppendTensors(nil, list)
	if got := AppendTensors(nil, list); !bytes.Equal(got, want) {
		t.Fatal("list encoding differs from the scalar oracle")
	}
	if tensorsLen(list) != len(want) {
		t.Fatalf("tensorsLen %d, encoding has %d bytes", tensorsLen(list), len(want))
	}
	c := NewCursor(want)
	dec := c.TensorsInto(nil)
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range list {
		if !sameBits(dec[i], list[i]) {
			t.Fatalf("list tensor %d: decoded bits differ", i)
		}
	}
}

// TestElementLoopMatchesBulkCopy runs the big-endian host's element
// loops on this host: for both dtypes, on the awkward bit patterns, each
// split of the element block in two — at every byte, so every way a
// frame boundary can cut an element — encodes the bytes the bulk path
// copies, and the decode loop returns every bit.
func TestElementLoopMatchesBulkCopy(t *testing.T) {
	if !littleEndian {
		t.Skip("the bulk path is the loop on a big-endian host")
	}
	rng := rand.New(rand.NewSource(22))
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		src := tensor.NewOf(dt, len(awkward64)+3)
		fillBits(src, rng)
		want := make([]byte, src.Bytes())
		putElems(want, src, 0)
		if !bytes.Equal(want, scalarAppendTensor(nil, src)[tensorLen(src)-src.Bytes():]) {
			t.Fatalf("%v: the bulk block differs from the scalar oracle", dt)
		}
		got := make([]byte, len(want))
		for cut := 0; cut <= len(want); cut++ {
			clear(got)
			putElemsLoop(got[:cut], src, 0)
			putElemsLoop(got[cut:], src, cut)
			if !bytes.Equal(got, want) {
				t.Fatalf("%v cut at byte %d: the element loop's bytes differ from the bulk copy", dt, cut)
			}
		}
		dec := tensor.NewOf(dt, src.Shape...)
		getElemsLoop(dec, want)
		if !sameBits(dec, src) {
			t.Fatalf("%v: the decode loop lost bits", dt)
		}
	}
}

// streamLists are two tensor lists whose encoding spans several frames at
// both widths, with small tensors in between so headers and counts land
// on frame boundaries for some prefix lengths too.
func streamLists() [][]*tensor.Tensor {
	rng := rand.New(rand.NewSource(21))
	mk := func(dt tensor.DType, shape ...int) *tensor.Tensor {
		t := tensor.NewOf(dt, shape...)
		fillBits(t, rng)
		return t
	}
	return [][]*tensor.Tensor{
		{mk(tensor.Float64, maxChunk/8+37), mk(tensor.Float32, 3), mk(tensor.Float32, 5, maxChunk/16), mk(tensor.Float64)},
		nil,
		{mk(tensor.Float64, 2, 2), mk(tensor.Float64, 3, maxChunk/32, 4)},
	}
}

// rawSender returns a framed connection whose peer end collects the raw
// bytes written to it; the bytes are complete once the connection closes.
func rawSender(t *testing.T, tcp bool) (MsgConn, func() []byte) {
	t.Helper()
	got := make(chan []byte, 1)
	collect := func(nc net.Conn) {
		b, _ := io.ReadAll(nc)
		nc.Close()
		got <- b
	}
	var conn MsgConn
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			collect(nc)
		}()
		if conn, err = NewTCPDialer(ln.Addr().String()).Dial(context.Background()); err != nil {
			t.Fatal(err)
		}
	} else {
		a, b := net.Pipe()
		go collect(b)
		conn = NewConn(a)
	}
	return conn, func() []byte { conn.Close(); return <-got }
}

// AppendMessage is the whole-payload oracle for the frame cut: it appends
// one message to dst as wire frames — at most maxChunk payload bytes each,
// the more-flag set on all but the last — from a materialised payload,
// which is what the streamed FrameWriter must reproduce byte for byte.
func AppendMessage(dst []byte, h Header, payload []byte) []byte {
	for {
		chunk := payload[:min(len(payload), maxChunk)]
		payload = payload[len(chunk):]
		h.Flags = 0
		if len(payload) > 0 {
			h.Flags = flagMore
		}
		dst = AppendFrame(dst, h, chunk)
		if len(payload) == 0 {
			return dst
		}
	}
}

// TestStreamedSendMatchesAppendMessage pins the streamed send to the
// staged one it replaced: for every alignment of the element grid against
// the frame boundaries (the prefix length shifts it through all eight
// offsets), the bytes Conn.Send writes for prefix + lists are exactly
// AppendMessage over the materialised payload — same split points, same
// headers, same CRCs — over a pipe and over TCP.
func TestStreamedSendMatchesAppendMessage(t *testing.T) {
	lists := streamLists()
	for _, tcp := range []bool{false, true} {
		conn, raw := rawSender(t, tcp)
		var want []byte
		for p := 0; p < 8; p++ {
			prefix := bytes.Repeat([]byte{byte(0xA0 + p)}, p)
			m := Msg{Type: MsgChunkDone, Replica: 3, Stage: int32(p - 1), Data: prefix, Lists: lists}
			payload := append([]byte(nil), prefix...)
			for _, ts := range lists {
				payload = scalarAppendTensors(payload, ts)
			}
			if !bytes.Equal(m.Payload(), payload) || m.PayloadLen() != len(payload) {
				t.Fatalf("prefix %d: Payload/PayloadLen disagree with the scalar encoding", p)
			}
			want = AppendMessage(want, Header{Type: m.Type, Replica: m.Replica, Stage: m.Stage}, payload)
			if err := conn.Send(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		// And the degenerate shapes: no payload at all, lists only, an
		// exact multiple of the chunk size.
		for _, m := range []Msg{
			{Type: MsgAck, Stage: -1},
			{Type: MsgSetGrads, Stage: 2, Lists: lists[:1]},
			{Type: MsgSetState, Stage: 1, Data: make([]byte, 2*maxChunk)},
		} {
			want = AppendMessage(want, Header{Type: m.Type, Stage: m.Stage}, m.Payload())
			if err := conn.Send(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		if got := raw(); !bytes.Equal(got, want) {
			t.Fatalf("tcp=%t: Send wrote %d bytes, AppendMessage gives %d (or bytes differ)", tcp, len(got), len(want))
		}
	}
}

// TestRecvBufferValidUntilNextRecv pins the receive contract: a message's
// Data stays intact until the next Recv on its connection starts, and
// that Recv then reuses the same storage.
func TestRecvBufferValidUntilNextRecv(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t.Run("two receives", func(t *testing.T) {
		a, b := pipeConns()
		defer a.Close()
		defer b.Close()
		first := Msg{Type: MsgState, Stage: 1, Lists: streamLists()}
		second := Msg{Type: MsgState, Stage: 2, Data: bytes.Repeat([]byte{7}, maxChunk+5)}
		go func() {
			a.Send(ctx, first)
			a.Send(ctx, second)
		}()
		m1, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The second message is already pressing on the pipe; nothing may
		// touch m1.Data before Recv is called again.
		time.Sleep(20 * time.Millisecond)
		if !bytes.Equal(m1.Data, first.Payload()) {
			t.Fatal("first message damaged before the second Recv")
		}
		m2, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m2.Data, second.Data) {
			t.Fatal("second message differs")
		}
		if &m1.Data[0] != &m2.Data[0] {
			t.Fatal("the second Recv did not reuse the connection's reassembly buffer")
		}
	})

	t.Run("demote, drain, rearm, next chunk", func(t *testing.T) {
		m, worker, _, stop := startPair(t, 2, 15*time.Millisecond)
		defer stop()
		m.SetStragglerMisses(1)
		worker.mu.Lock()
		worker.stall = 120 * time.Millisecond
		worker.mu.Unlock()
		if _, _, err := m.RunChunk(ctx, 0, true, false, [][]int{{0}, {1}}); !errors.Is(err, replica.ErrStraggler) {
			t.Fatalf("slow chunk returned %v, want a straggle", err)
		}
		for !m.Rearm() {
			if err := m.Err(); err != nil || ctx.Err() != nil {
				t.Fatalf("drain: %v / %v", err, ctx.Err())
			}
			time.Sleep(time.Millisecond)
		}
		worker.mu.Lock()
		worker.stall = 0
		worker.mu.Unlock()
		// The late reply sits in the reassembly buffer; the next chunk's
		// reply must replace it, not mix with it.
		losses, grads, err := m.RunChunk(ctx, 4, true, false, [][]int{{0}, {1}, {2}})
		if err != nil {
			t.Fatal(err)
		}
		if len(losses) != 3 || losses[2] != 106 || len(grads) != 3 {
			t.Fatalf("chunk after the drain: losses %v, %d gradient sets", losses, len(grads))
		}
	})

	t.Run("damaged messages", func(t *testing.T) {
		big := Msg{Type: MsgSetState, Stage: 3, Lists: streamLists()}
		stream := AppendMessage(nil, Header{Type: big.Type, Stage: big.Stage}, big.Payload())
		next := AppendMessage(nil, Header{Type: MsgSync, Stage: -1}, []byte{0, 0, 0, 9})
		lastFrame := len(stream) - (big.PayloadLen()%maxChunk + headerLen + trailerLen)
		for name, damage := range map[string]func([]byte){
			"CRC of the final frame":     func(b []byte) { b[len(b)-1] ^= 1 },
			"payload of the final frame": func(b []byte) { b[lastFrame+headerLen+3] ^= 0x40 },
			"payload of the first frame": func(b []byte) { b[headerLen+100] ^= 0x40 },
			"header of a middle frame":   func(b []byte) { b[headerLen+maxChunk+trailerLen+7] ^= 1 },
			"final frame of another type": func(b []byte) {
				b[lastFrame+3] = MsgSetGrads
				copy(b[len(b)-trailerLen:], appendCRC(b[lastFrame:len(b)-trailerLen:len(b)-trailerLen], 0)[len(b)-trailerLen-lastFrame:])
			},
		} {
			bad := append([]byte(nil), stream...)
			damage(bad)
			a, b := net.Pipe()
			conn := NewConn(b)
			go func() {
				a.Write(bad)
				a.Write(next)
				a.Close()
			}()
			if _, err := conn.Recv(ctx); err == nil {
				t.Fatalf("%s: the damaged message was accepted", name)
			}
			// The stream is still frame-aligned (no length field was
			// touched), so the message after the damaged one decodes once
			// the orphaned frames before it have been read.
			var m Msg
			var err error
			for i := 0; i < 8; i++ {
				if m, err = conn.Recv(ctx); err == nil && m.Type == MsgSync {
					break
				}
			}
			if err != nil || m.Type != MsgSync || !bytes.Equal(m.Data, []byte{0, 0, 0, 9}) {
				t.Fatalf("%s: the next message did not decode: %v, type %d", name, err, m.Type)
			}
			conn.Close()
		}

		// Truncation: the stream ends inside a frame, or between frames
		// of one message.
		for _, cut := range []int{headerLen / 2, headerLen + 10, headerLen + maxChunk + trailerLen, len(stream) - 2} {
			a, b := net.Pipe()
			conn := NewConn(b)
			go func() {
				a.Write(stream[:cut])
				a.Close()
			}()
			if _, err := conn.Recv(ctx); err == nil {
				t.Fatalf("a message truncated at byte %d was accepted", cut)
			}
			if _, _, err := NextMessage(stream[:cut]); err == nil {
				t.Fatalf("NextMessage accepted a message truncated at byte %d", cut)
			}
			conn.Close()
		}
	})
}

// bulkMember is a wireMember whose stages hold real tensors — two per
// stage, one of each dtype — and whose collective surface allocates
// nothing, so what a round over the wire allocates is the wire's own.
type bulkMember struct {
	*wireMember
	grads, state [][]*tensor.Tensor
}

func newBulkMember(p int) *bulkMember {
	m := &bulkMember{wireMember: newWireMember(p)}
	for st := 0; st < p; st++ {
		mk := func() []*tensor.Tensor {
			a, b := tensor.NewOf(tensor.Float64, 200, 200+st), tensor.NewOf(tensor.Float32, 1000+st)
			for i := 0; i < a.Size(); i++ {
				a.SetFlat(i, float64(i+st))
			}
			for i := 0; i < b.Size(); i++ {
				b.SetFlat(i, float64(i-st))
			}
			return []*tensor.Tensor{a, b}
		}
		m.grads, m.state = append(m.grads, mk()), append(m.state, mk())
	}
	return m
}

func (m *bulkMember) TakeStageGrads(stage int, bufs []*tensor.Tensor) []*tensor.Tensor {
	return m.grads[stage]
}
func (m *bulkMember) SetStageGrads(stage int, bufs []*tensor.Tensor) {
	for i, b := range bufs {
		m.grads[stage][i].CopyFrom(b)
	}
}
func (m *bulkMember) StageState(stage int) []*tensor.Tensor { return m.state[stage] }
func (m *bulkMember) ImportStageState(stage int, src []*tensor.Tensor) {
	for i, s := range src {
		m.state[stage][i].CopyFrom(s)
	}
}

// startBulk serves a 4-stage bulkMember over conn's peer and returns the
// leader's proxy.
func startBulk(tb testing.TB) (m *RemoteMember, leader *bulkMember, stop func()) {
	tb.Helper()
	const p = 4
	lis, dial := Loopback()
	worker, leader := newBulkMember(p), newBulkMember(p)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- Serve(ctx, lis, func(Spec) (replica.Local, error) { return worker, nil })
	}()
	conn, err := dial.Dial(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	m, err = NewRemoteMember(ctx, conn, Spec{Replica: 1, Replicas: 2, Stages: p})
	if err != nil {
		tb.Fatal(err)
	}
	return m, leader, func() {
		m.Close()
		if err := <-serveDone; err != nil {
			tb.Errorf("serve: %v", err)
		}
		cancel()
		lis.Close()
	}
}

// wireRound is one step's tensor traffic on one link: a chunk out and its
// gradients back, then per stage a scatter, a state fetch and a state
// import. It returns the tensor bytes that crossed.
func wireRound(tb testing.TB, m *RemoteMember, leader *bulkMember, micros [][]int) int {
	_, grads, err := m.RunChunk(context.Background(), 0, true, false, micros)
	if err != nil {
		tb.Fatal(err)
	}
	moved := 0
	for _, micro := range grads {
		for _, stage := range micro {
			moved += tensorsLen(stage)
		}
	}
	for st := 0; st < m.Stages(); st++ {
		m.SetStageGrads(st, leader.grads[st])
		state := m.StageState(st)
		m.ImportStageState(st, state)
		moved += tensorsLen(leader.grads[st]) + 2*tensorsLen(state)
	}
	if err := m.Err(); err != nil {
		tb.Fatal(err)
	}
	return moved
}

// TestSteadyStateWireAllocs is the allocation guard on the wire path:
// after warm-up, a step's traffic — megabytes of tensors both ways — costs
// a fixed handful of small objects per message (contexts, deadline
// watchers, cursors) and no buffer: nothing proportional to the bytes
// moved is allocated on either side. Counts, not seconds.
func TestSteadyStateWireAllocs(t *testing.T) {
	m, leader, stop := startBulk(t)
	defer stop()
	micros := [][]int{{0, 1}, {2, 3}, {4, 5}}
	moved := 0
	for i := 0; i < 2; i++ {
		moved = wireRound(t, m, leader, micros)
	}
	if moved < 4*maxChunk {
		t.Fatalf("a round moves only %d bytes: not a multi-frame workload", moved)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		wireRound(t, m, leader, micros)
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / rounds
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("a round moves %d tensor bytes in %d messages and allocates %d objects, %d bytes", moved, 2*(1+3*m.Stages()), objects, bytesPer)
	// 13 request/reply pairs a round; each Send and Recv arms a deadline
	// watcher (two channels, a goroutine, a closure).
	if objects > 400 {
		t.Errorf("a steady-state round allocates %d objects, want at most 400", objects)
	}
	if bytesPer > uint64(moved)/100 {
		t.Errorf("a steady-state round allocates %d bytes, more than 1%% of the %d it moves", bytesPer, moved)
	}
}

func benchTensors(dt tensor.DType) ([]*tensor.Tensor, int) {
	ts := []*tensor.Tensor{tensor.NewOf(dt, 512, 512), tensor.NewOf(dt, 512), tensor.NewOf(dt, 512, 2048), tensor.NewOf(dt, 2048)}
	rng := rand.New(rand.NewSource(22))
	for _, t := range ts {
		fillBits(t, rng)
	}
	return ts, tensorsLen(ts)
}

func benchEncode(b *testing.B, dt tensor.DType) {
	ts, n := benchTensors(dt)
	b.SetBytes(int64(n))
	var buf []byte
	for b.Loop() {
		buf = AppendTensors(buf[:0], ts)
	}
}

func benchDecode(b *testing.B, dt tensor.DType) {
	ts, n := benchTensors(dt)
	payload := AppendTensors(nil, ts)
	b.SetBytes(int64(n))
	var bufs []*tensor.Tensor
	for b.Loop() {
		c := NewCursor(payload)
		bufs = c.TensorsInto(bufs)
		if err := c.Done(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecEncodeF64(b *testing.B) { benchEncode(b, tensor.Float64) }
func BenchmarkCodecEncodeF32(b *testing.B) { benchEncode(b, tensor.Float32) }
func BenchmarkCodecDecodeF64(b *testing.B) { benchDecode(b, tensor.Float64) }
func BenchmarkCodecDecodeF32(b *testing.B) { benchDecode(b, tensor.Float32) }

// BenchmarkConnStream is a step's tensor traffic over a loopback link,
// end to end: encode from tensors into frames, CRC, pipe, CRC, reassemble,
// decode into reused tensors, both directions.
func BenchmarkConnStream(b *testing.B) {
	m, leader, stop := startBulk(b)
	defer stop()
	micros := [][]int{{0, 1}, {2, 3}, {4, 5}}
	b.SetBytes(int64(wireRound(b, m, leader, micros)))
	b.ReportAllocs()
	for b.Loop() {
		wireRound(b, m, leader, micros)
	}
}
