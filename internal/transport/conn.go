package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Msg is one reassembled protocol message: a frame header's routing
// fields plus the concatenated payload of its chunks.
type Msg struct {
	Type    byte
	Replica uint16
	Stage   int32
	Data    []byte
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
// serve loop) serialize access.
type Conn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte // frame scratch
}

// NewConn frames messages over nc. nc must honor SetDeadline (net.Pipe
// and TCP connections both do).
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10), w: bufio.NewWriterSize(nc, 64<<10)}
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
// into consecutive frames with the more-flag set on all but the last.
// The write is context-aware: cancellation or a context deadline unwinds
// a blocked write.
func (c *Conn) Send(ctx context.Context, m Msg) error {
	stop, err := c.arm(ctx)
	if err != nil {
		return err
	}
	defer stop()
	err = splitMessage(Header{Type: m.Type, Replica: m.Replica, Stage: m.Stage}, m.Data, func(h Header, chunk []byte) error {
		c.buf = AppendFrame(c.buf[:0], h, chunk)
		_, err := c.w.Write(c.buf)
		return err
	})
	if err != nil {
		return mapErr(ctx, fmt.Errorf("transport: write frame: %w", err))
	}
	if err := c.w.Flush(); err != nil {
		return mapErr(ctx, fmt.Errorf("transport: flush: %w", err))
	}
	return nil
}

// Recv reads one message, reassembling chunked frames and verifying each
// frame's magic, version, bounds and CRC. The read is context-aware:
// cancellation or a context deadline unwinds a blocked read. Malformed
// input returns an error, never a panic.
func (c *Conn) Recv(ctx context.Context) (Msg, error) {
	stop, err := c.arm(ctx)
	if err != nil {
		return Msg{}, err
	}
	defer stop()
	return joinMessage(func() (Header, []byte, error) {
		h, payload, err := c.readFrame()
		return h, payload, mapErr(ctx, err)
	})
}

var _ MsgConn = (*Conn)(nil)

// readFrame reads and validates one frame from the stream.
func (c *Conn) readFrame() (Header, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return Header{}, nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	_, n, err := parseHeader(hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	need := n + trailerLen
	if cap(c.buf) < headerLen+need {
		c.buf = make([]byte, headerLen+need)
	}
	c.buf = c.buf[:headerLen+need]
	copy(c.buf, hdr[:])
	if _, err := io.ReadFull(c.r, c.buf[headerLen:]); err != nil {
		return Header{}, nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	hh, payload, _, err := DecodeFrame(c.buf)
	if err != nil {
		return Header{}, nil, err
	}
	return hh, payload, nil
}
