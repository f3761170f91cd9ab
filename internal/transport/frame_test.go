package transport

import (
	"strings"
	"testing"
)

// TestFrameRoundTrip pins the frame codec: header fields and payload
// bytes survive encode/decode exactly, and consecutive frames in one
// buffer decode in sequence via the returned remainder.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0xde, 0xad, 0xbe, 0xef},
		make([]byte, maxChunk), // the largest legal single-frame payload
	}
	for i := range payloads[3] {
		payloads[3][i] = byte(i * 31)
	}
	headers := []Header{
		{Type: MsgHello, Replica: 0, Stage: -1},
		{Type: MsgSetGrads, Flags: flagMore, Replica: 3, Stage: 7},
		{Type: MsgChunkDone, Replica: 65535, Stage: 1<<31 - 1},
	}
	var buf []byte
	var want []struct {
		h Header
		p []byte
	}
	for i, h := range headers {
		p := payloads[i%len(payloads)]
		buf = AppendFrame(buf, h, p)
		want = append(want, struct {
			h Header
			p []byte
		}{h, p})
	}
	rest := buf
	for i, w := range want {
		h, payload, r, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h != w.h {
			t.Fatalf("frame %d: header %+v, want %+v", i, h, w.h)
		}
		if string(payload) != string(w.p) {
			t.Fatalf("frame %d: payload differs (%d bytes, want %d)", i, len(payload), len(w.p))
		}
		if h.More() != (w.h.Flags&flagMore != 0) {
			t.Fatalf("frame %d: More() = %t", i, h.More())
		}
		rest = r
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(rest))
	}
}

// TestDecodeFrameErrors pins the malformed-input paths: truncation at
// every boundary, bad magic, unknown version, oversized length prefixes
// and CRC mismatches all error — never panic, never return garbage.
func TestDecodeFrameErrors(t *testing.T) {
	good := AppendFrame(nil, Header{Type: MsgAck, Replica: 1, Stage: 2}, []byte{1, 2, 3})
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"empty", nil, "truncated frame header"},
		{"short header", good[:headerLen-1], "truncated frame header"},
		{"bad magic", append([]byte{0x00}, good[1:]...), "bad frame magic"},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[2] = 99
			return b
		}(), "protocol version"},
		{"oversized length", func() []byte {
			b := append([]byte(nil), good...)
			b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff
			return b
		}(), "exceeds limit"},
		{"truncated payload", good[:len(good)-1], "truncated frame"},
		{"flipped payload bit", func() []byte {
			b := append([]byte(nil), good...)
			b[headerLen] ^= 0x01
			return b
		}(), "CRC mismatch"},
		{"flipped header bit", func() []byte {
			b := append([]byte(nil), good...)
			b[6] ^= 0x80 // replica id is CRC-covered too
			return b
		}(), "CRC mismatch"},
		{"length prefix lies", func() []byte {
			// A length prefix larger than the actual payload must read as
			// truncation, not index past the buffer.
			b := append([]byte(nil), good...)
			b[15] = 200
			return b
		}(), "truncated frame"},
	}
	for _, tc := range cases {
		_, _, _, err := DecodeFrame(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must
// never panic, and whenever it succeeds the reported payload must lie
// within bounds and re-encode to a decodable frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendFrame(nil, Header{Type: MsgHello, Stage: -1}, nil))
	f.Add(AppendFrame(nil, Header{Type: MsgSetGrads, Flags: flagMore, Replica: 9, Stage: 4}, []byte("tensor bits")))
	trunc := AppendFrame(nil, Header{Type: MsgAck}, []byte{1, 2, 3})
	f.Add(trunc[:len(trunc)-2])
	corrupt := AppendFrame(nil, Header{Type: MsgErr}, []byte{9})
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	// Multi-frame messages: the first frame carries the more-flag and the
	// rest of the message follows it.
	f.Add(AppendMessage(nil, Header{Type: MsgChunkDone, Replica: 1, Stage: -1}, make([]byte, maxChunk+9)))
	f.Add(AppendFrame(AppendFrame(nil, Header{Type: MsgState, Flags: flagMore, Stage: 2}, []byte("first")), Header{Type: MsgState, Stage: 2}, []byte("last")))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, rest, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload {
			t.Fatalf("accepted payload of %d bytes", len(payload))
		}
		if len(payload)+len(rest) > len(b) {
			t.Fatal("payload+rest exceed the input")
		}
		re := AppendFrame(nil, h, payload)
		h2, p2, _, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if h2 != h || string(p2) != string(payload) {
			t.Fatal("re-encoded frame decodes differently")
		}
	})
}
