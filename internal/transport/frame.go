// Package transport implements the wire layer that turns the in-process
// replica collectives (package replica) into distributed ones: a
// length-prefixed, CRC-checked binary frame protocol with chunked
// streaming for large tensors, two interchangeable byte transports —
// loopback (in-process pipes, zero network) and TCP (real sockets with
// dial retry/backoff and context-aware reads and writes) — and, on top,
// RemoteMember and Serve, which adapt the wire to the replica.Member
// surface so replica.Group's reduce, sharded commit and state
// handoff run unchanged whether a follower lives in the same process or
// behind a socket.
//
// # Wire format
//
// Every message travels as one or more frames:
//
//	offset  size  field
//	0       2     magic "PM" (0x50 0x4D)
//	2       1     protocol version (9)
//	3       1     message type
//	4       1     flags (bit 0: more chunks of this message follow)
//	5       1     reserved (0)
//	6       2     replica id (big-endian uint16)
//	8       4     stage / shard id (big-endian int32; -1 = none)
//	12      4     payload length (big-endian uint32, ≤ maxFramePayload)
//	16      n     payload
//	16+n    4     CRC-32 (IEEE) over header+payload
//
// Tensor payloads larger than maxChunk split into consecutive frames
// with the more-flag set on all but the last; the receiver reassembles
// them into one message. A sender never stages a whole payload: each
// frame is encoded from the message's tensors straight into one reused
// frame scratch (FrameWriter), and a receiver reads each frame's payload
// straight into the one reassembly buffer its connection owns (Conn.Recv:
// Msg.Data is valid until the next Recv). Malformed input — bad magic, unknown version,
// oversized length prefixes, truncated payloads, CRC mismatches — is
// reported as an error, never a panic (FuzzDecodeFrame pins this).
//
// # Determinism across serialization
//
// A tensor's elements travel as their IEEE-754 bit patterns at the
// tensor's dtype width (selected by a per-tensor dtype tag), little-endian
// — on a little-endian host the storage bytes themselves — so a tensor
// round-trips bit-exactly: no formatting, no rounding, no widening. Every
// collective that moves floats — gradient export, scatter, state gather,
// handoff — therefore moves bits without arithmetic, as it does in
// process, and the replica layer's determinism argument (all arithmetic
// at the tree root, in global microbatch order) survives the wire
// unchanged.
package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// frameMagic starts every frame: "PM".
	frameMagic0 = 0x50
	frameMagic1 = 0x4D
	// Version is the protocol version this package speaks. Version 2
	// added a dtype tag byte to every tensor payload (float32 support);
	// version 3 opened every session with the one MsgHello — no state
	// checksum, no welcome round trip for joiners; version 4 made a stage's
	// step one MsgStep carrying the clip scale, and dropped the scale,
	// finish and epoch-sync messages (the epoch phase rides with each
	// chunk); version 5 dropped the step-clock advance and the handoff's
	// step sync (a member's step count is its rings' newest version);
	// version 6 has version 5's bytes, but its GELU and softmax round
	// differently (the trainer's own exp, internal/tensor), so a v5 peer
	// would train another curve; version 7's hello carries the leader's
	// encoded recipe (Spec.Recipe) in place of the method, T2 flag, group
	// costs and fault-tolerance flag; version 8's chunk request says
	// whether it is chunk 0, whose reply carries one in-place prefix in
	// place of per-microbatch exports, and the commit's gather imports
	// masters (MsgImport) and replays T2 where version 7 shipped δ and the
	// corrected weights too (MsgSetState, now the handoff's alone);
	// version 9 writes every tensor's element block little-endian, where
	// version 8 wrote it big-endian (headers and scalars stay big-endian).
	// Peers of another version are rejected rather than mis-decoded.
	Version = 9

	headerLen  = 16
	trailerLen = 4 // CRC-32

	// flagMore marks a frame whose message continues in the next frame.
	flagMore = 0x01

	// maxChunk is the largest payload a sender puts in one frame: larger
	// messages stream as chunks so a multi-megabyte tensor never needs a
	// contiguous wire buffer at once.
	maxChunk = 1 << 18
	// maxFramePayload is the largest payload length a receiver accepts in
	// a single frame (a small safety factor over maxChunk).
	maxFramePayload = 1 << 20
	// maxMsg caps a reassembled message, bounding memory against a
	// corrupt or hostile peer.
	maxMsg = 1 << 30
)

// Message types. Requests flow leader→worker; every request has exactly
// one reply (MsgAck, a typed reply, or MsgErr). MsgPing is the one
// exception: the worker interleaves it with a pending MsgChunkDone as a
// liveness signal, and the leader consumes it without replying. The
// numbers of deleted types (8, 9, 11, 15, 16) are not reused.
const (
	MsgHello     = 1  // leader→worker: the Spec that opens every session (launch or join)
	MsgHelloOK   = 2  // worker→leader: follower built for the Spec
	MsgRunChunk  = 3  // leader→worker: run a chunk of microbatches
	MsgChunkDone = 4  // worker→leader: chunk losses + exported gradients (chunk 0: one prefix)
	MsgSetGrads  = 5  // leader→worker: overwrite a stage's gradient accumulators
	MsgPrepare   = 6  // leader→worker: PrepareStage(stage, nMicro)
	MsgPrepared  = 7  // worker→leader: the stage's clip-norm partial
	MsgStep      = 10 // leader→worker: StepStage(stage, scale)
	MsgGetState  = 12 // leader→worker: read a stage's post-step masters (gather)
	MsgState     = 13 // worker→leader: the stage's state tensors
	MsgSetState  = 14 // leader→worker: overwrite a stage's whole state (handoff)
	MsgSync      = 16 // retired: no request carries it (the benchmark's empty round trip still names it)
	MsgAck       = 17 // worker→leader: generic success reply
	MsgErr       = 18 // worker→leader: failure reply (code + text)
	MsgBye       = 19 // leader→worker: clean shutdown
	MsgPing      = 20 // worker→leader: heartbeat while a chunk computes (no reply)
	MsgSetRing   = 21 // leader→worker: restore a stage's weight-version ring
	MsgJoin      = 22 // joiner→leader: mid-run join request (earliest step to admit at)
	MsgImport    = 23 // leader→worker: import a stage's post-step masters, replay its T2 tail (gather)
)

// Error codes carried by MsgErr.
const (
	errGeneric  = 1 // the worker failed; the connection is unusable
	errDiverged = 2 // the chunk diverged (a normal training outcome, not a transport fault)
)

// Header is the fixed per-frame metadata.
type Header struct {
	Type    byte
	Flags   byte
	Replica uint16
	Stage   int32 // -1 when the message is not stage-scoped
}

// More reports whether the message continues in the next frame.
func (h Header) More() bool { return h.Flags&flagMore != 0 }

var crcTable = crc32.IEEETable

// AppendFrame appends one encoded frame (header, payload, CRC trailer)
// to dst and returns the extended slice. The payload must not exceed
// maxChunk; message chunking is the caller's job (the FrameWriter behind
// Conn.Send).
func AppendFrame(dst []byte, h Header, payload []byte) []byte {
	start := len(dst)
	dst = appendHeader(dst, h, len(payload))
	dst = append(dst, payload...)
	return appendCRC(dst, start)
}

// appendHeader appends the 16-byte header of a frame carrying n payload
// bytes.
func appendHeader(dst []byte, h Header, n int) []byte {
	if n > maxChunk {
		panic(fmt.Sprintf("transport: frame payload %d exceeds max chunk %d", n, maxChunk))
	}
	return append(dst,
		frameMagic0, frameMagic1, Version, h.Type, h.Flags, 0,
		byte(h.Replica>>8), byte(h.Replica),
		byte(uint32(h.Stage)>>24), byte(uint32(h.Stage)>>16), byte(uint32(h.Stage)>>8), byte(uint32(h.Stage)),
		byte(uint32(n)>>24), byte(uint32(n)>>16), byte(uint32(n)>>8), byte(uint32(n)),
	)
}

// appendCRC closes the frame that starts at dst[start] with its trailer.
func appendCRC(dst []byte, start int) []byte {
	return AppendU32(dst, crc32.Checksum(dst[start:], crcTable))
}

// checkCRC compares a frame's computed CRC with its trailer.
func checkCRC(got uint32, trailer []byte) error {
	if want := binary.BigEndian.Uint32(trailer); got != want {
		return fmt.Errorf("transport: frame CRC mismatch: got %#08x, want %#08x", got, want)
	}
	return nil
}

// parseHeader validates and decodes a 16-byte frame header, returning
// the header and the payload length.
func parseHeader(b []byte) (Header, int, error) {
	if len(b) < headerLen {
		return Header{}, 0, fmt.Errorf("transport: truncated frame header: %d bytes", len(b))
	}
	if b[0] != frameMagic0 || b[1] != frameMagic1 {
		return Header{}, 0, fmt.Errorf("transport: bad frame magic %#02x%02x", b[0], b[1])
	}
	if b[2] != Version {
		return Header{}, 0, fmt.Errorf("transport: protocol version %d, want %d", b[2], Version)
	}
	n := int(uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15]))
	if n > maxFramePayload {
		return Header{}, 0, fmt.Errorf("transport: frame payload length %d exceeds limit %d", n, maxFramePayload)
	}
	h := Header{
		Type:    b[3],
		Flags:   b[4],
		Replica: uint16(b[6])<<8 | uint16(b[7]),
		Stage:   int32(uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])),
	}
	return h, n, nil
}

// DecodeFrame decodes the first frame in b, verifying magic, version,
// length bounds and the CRC trailer. It returns the header, the payload
// (a sub-slice of b) and the remainder of b after the frame. Malformed
// input returns an error; it never panics.
func DecodeFrame(b []byte) (Header, []byte, []byte, error) {
	h, n, err := parseHeader(b)
	if err != nil {
		return Header{}, nil, nil, err
	}
	total := headerLen + n + trailerLen
	if len(b) < total {
		return Header{}, nil, nil, fmt.Errorf("transport: truncated frame: have %d bytes, frame needs %d", len(b), total)
	}
	if err := checkCRC(crc32.Checksum(b[:headerLen+n], crcTable), b[headerLen+n:total]); err != nil {
		return Header{}, nil, nil, err
	}
	return h, b[headerLen : headerLen+n], b[total:], nil
}

// joinMessage reassembles one message from the frames next yields — the
// one reassembler behind Conn.Recv and NextMessage. next appends its
// frame's payload to the message so far and returns the extended slice,
// so a connection can read each frame straight into its reassembly
// buffer; the message is returned in that slice.
func joinMessage(dst []byte, next func(dst []byte) (Header, []byte, error)) (Msg, error) {
	var m Msg
	for first := true; ; first = false {
		h, data, err := next(dst)
		if err != nil {
			return Msg{}, err
		}
		if first {
			m = Msg{Type: h.Type, Replica: h.Replica, Stage: h.Stage}
		} else if h.Type != m.Type || h.Replica != m.Replica || h.Stage != m.Stage {
			return Msg{}, fmt.Errorf("transport: chunk header mismatch: type %d/%d", h.Type, m.Type)
		}
		if len(data) > maxMsg {
			return Msg{}, fmt.Errorf("transport: message exceeds %d bytes", maxMsg)
		}
		dst = data
		if !h.More() {
			m.Data = dst
			return m, nil
		}
	}
}

// NextMessage decodes the next message from a frame stream produced by a
// FrameWriter, reassembling chunked frames and verifying each frame's
// magic, version, bounds and CRC. It returns the message, in a buffer of
// its own, and the remainder of b after it.
func NextMessage(b []byte) (Msg, []byte, error) {
	m, err := joinMessage(nil, func(dst []byte) (h Header, data []byte, err error) {
		var payload []byte
		h, payload, b, err = DecodeFrame(b)
		return h, append(dst, payload...), err
	})
	return m, b, err
}
