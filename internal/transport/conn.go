package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"time"

	"pipemare/internal/tensor"
)

// Msg is one protocol message: a frame header's routing fields plus the
// payload its frames carry.
//
// A received message has its whole payload in Data. Data then lives in the
// connection's reassembly buffer and is valid until the next Recv on that
// connection (NextMessage, which parses a file, returns a buffer of its
// own).
//
// A message to send may keep the tensor part of its payload out of Data:
// the payload is Data followed by the AppendTensors encoding of each of
// Lists in turn, and Send encodes the lists from tensor storage straight
// into its frames. The tensors are read until Send returns. Whoever looks
// at a message between its maker and the framing layer — a fault injector,
// a recorder, a byte count — reads it through PayloadLen and Payload, not
// len(Data).
type Msg struct {
	Type    byte
	Replica uint16
	Stage   int32
	Data    []byte
	Lists   [][]*tensor.Tensor
}

// PayloadLen is the length of the payload m's frames carry.
func (m Msg) PayloadLen() int {
	n := len(m.Data)
	for _, ts := range m.Lists {
		n += tensorsLen(ts)
	}
	return n
}

// Payload materialises m's payload: Data itself when m carries no lists,
// otherwise a new buffer holding Data and the encoded lists.
func (m Msg) Payload() []byte {
	if len(m.Lists) == 0 {
		return m.Data
	}
	b := append(make([]byte, 0, m.PayloadLen()), m.Data...)
	for _, ts := range m.Lists {
		b = AppendTensors(b, ts)
	}
	return b
}

// MsgConn is the message-level connection surface: everything above the
// framing layer (RemoteMember, the serve loop) speaks it, so a fault
// injector (internal/faults) or any other middleware can wrap a *Conn
// without the protocol code noticing.
type MsgConn interface {
	// Send writes one message, honoring ctx.
	Send(ctx context.Context, m Msg) error
	// Recv reads one message, honoring ctx.
	Recv(ctx context.Context) (Msg, error)
	// Close closes the connection, unblocking in-flight I/O.
	Close() error
	// LocalAddr names the connection's local end.
	LocalAddr() string
}

// Conn frames messages over a byte stream. Both transports produce one:
// loopback wraps an in-process net.Pipe end, TCP a real socket — both
// support deadlines, which is how context cancellation propagates into
// every blocking read and write (see Send/Recv).
//
// A Conn is not safe for concurrent use; callers (RemoteMember, the
// serve loop) serialize access. It owns one buffer per direction and no
// other: the FrameWriter's frame scratch (each frame is built there, from
// the message's bytes and tensors, and leaves in one write), and the
// reassembly buffer every received frame's payload is read straight into.
type Conn struct {
	nc   net.Conn
	r    *bufio.Reader
	fw   *FrameWriter
	rbuf []byte                       // reassembly buffer: the last received message's Data
	ends [headerLen + trailerLen]byte // the header and trailer of the frame being read
}

// NewConn frames messages over nc. nc must honor SetDeadline (net.Pipe
// and TCP connections both do).
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), fw: NewFrameWriter(nc)}
}

// Close closes the underlying connection, unblocking any in-flight read
// or write on it.
func (c *Conn) Close() error { return c.nc.Close() }

// LocalAddr names the connection's local end.
func (c *Conn) LocalAddr() string { return c.nc.LocalAddr().String() }

// arm applies ctx to the connection: an existing deadline maps to a
// connection deadline, and cancellation forces an immediate one so any
// blocked read/write unwinds with a timeout error. The returned stop
// function releases the watcher; mapErr rewrites the resulting I/O error
// to ctx.Err() once the context is done, so callers see cancellation,
// not a spurious timeout.
func (c *Conn) arm(ctx context.Context) (stop func(), err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Time{}
	if d, ok := ctx.Deadline(); ok {
		deadline = d
	}
	// A closed-connection report is NOT an arm failure: net.Pipe surfaces
	// the PEER's close here, and a frame already buffered — the leader's
	// goodbye in particular — must still drain. I/O on a closed connection
	// cannot block, so losing the deadline is safe, and the operation
	// itself reports the connection's real state.
	if err := c.nc.SetDeadline(deadline); err != nil &&
		!errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, net.ErrClosed) {
		return nil, fmt.Errorf("transport: set deadline: %w", err)
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			// Unblock the pending I/O immediately. If the connection refuses
			// the forced deadline, closing it is the only remaining way to
			// guarantee the blocked read or write unwinds.
			if err := c.nc.SetDeadline(time.Unix(1, 0)); err != nil {
				c.nc.Close()
			}
		case <-done:
		}
	}()
	// stop joins the watcher: a cancellation racing the operation's
	// completion must land its past-deadline before stop returns, or it
	// would clobber the deadline the NEXT operation arms (e.g. a dial
	// context canceled right after a successful handshake poisoning the
	// first collective).
	return func() { close(done); <-exited }, nil
}

func mapErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if _, hasDeadline := ctx.Deadline(); hasDeadline {
			// The connection deadline mirrors the context deadline, and its
			// timer can fire a hair before the context's own. Wait out the
			// skew so callers always see the context error.
			<-ctx.Done()
			return ctx.Err()
		}
	}
	return err
}

// Send writes one message, splitting payloads larger than the chunk size
// into consecutive frames with the more-flag set on all but the last
// (FrameWriter). The write is context-aware: cancellation or a context
// deadline unwinds a blocked write.
func (c *Conn) Send(ctx context.Context, m Msg) error {
	stop, err := c.arm(ctx)
	if err != nil {
		return err
	}
	defer stop()
	if err := c.fw.WriteMsg(m); err != nil {
		return mapErr(ctx, fmt.Errorf("transport: write frame: %w", err))
	}
	return nil
}

// Recv reads one message, reassembling chunked frames and verifying each
// frame's magic, version, bounds and CRC. The read is context-aware:
// cancellation or a context deadline unwinds a blocked read. Malformed
// input returns an error, never a panic.
//
// The message's Data is the connection's reassembly buffer, valid until
// the next Recv on this connection. Every consumer is done with a message
// before it reads the next: RemoteMember decodes a reply under its lock
// before the next request goes out (the straggler drainer only discards
// the late reply, and the member takes no chunk until it has);
// server.dispatch decodes a request before replying; the handshake and
// join decoders run on the one message they read; faults.Conn holds a
// message only across its own delay.
func (c *Conn) Recv(ctx context.Context) (Msg, error) {
	stop, err := c.arm(ctx)
	if err != nil {
		return Msg{}, err
	}
	defer stop()
	m, err := joinMessage(c.rbuf[:0], func(dst []byte) (Header, []byte, error) {
		h, data, err := c.readFrame(dst)
		return h, data, mapErr(ctx, err)
	})
	if err != nil {
		return Msg{}, err
	}
	if cap(m.Data) != cap(c.rbuf) {
		// The largest message so far grew the buffer by amortised steps;
		// retain only what it needed.
		m.Data = slices.Clone(m.Data)
	}
	c.rbuf = m.Data
	return m, nil
}

var _ MsgConn = (*Conn)(nil)

// readFrame reads and validates one frame from the stream, its payload
// straight onto the end of dst.
func (c *Conn) readFrame(dst []byte) (Header, []byte, error) {
	hdr, trailer := c.ends[:headerLen], c.ends[headerLen:]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		return Header{}, nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	h, n, err := parseHeader(hdr)
	if err != nil {
		return Header{}, nil, err
	}
	dst = slices.Grow(dst, n)[:len(dst)+n]
	payload := dst[len(dst)-n:]
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return Header{}, nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	if _, err := io.ReadFull(c.r, trailer); err != nil {
		return Header{}, nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	crc := crc32.Update(crc32.Checksum(hdr, crcTable), crcTable, payload)
	if err := checkCRC(crc, trailer); err != nil {
		return Header{}, nil, err
	}
	return h, dst, nil
}
