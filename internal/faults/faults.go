// Package faults injects scripted transport failures for testing the
// fault-tolerance layer: a Conn wrapper over transport.MsgConn applies
// deterministic, message-counted rules — drop a send before it reaches
// the wire (a transient fault the retry layer must absorb), delay it,
// corrupt it (a fatal decode error on the peer), kill the connection
// (at once, or as the reply to a received request goes out), hang a
// receive until the heartbeat window expires, or run an arbitrary hook
// (e.g. os.Exit in a worker, simulating kill -9).
//
// Rules trigger on the Nth matching message, counted per rule, so a
// scenario like "kill replica 2's link on its 3rd RunChunk" is one Rule
// and is exactly reproducible: no randomness, no timing dependence.
package faults

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pipemare/internal/transport"
)

// Op is what a triggered rule does to the matching message.
type Op int

const (
	// Drop discards a send before it reaches the wire and reports a
	// transient error — the one fault class where a resend is provably
	// invisible to the peer, so the retry layer recovers with zero curve
	// deviation. It is send-only: a received message has already left the
	// peer, so NewScript refuses a Recv rule that drops one.
	Drop Op = iota
	// Delay sleeps Rule.Delay (context-aware), then proceeds normally.
	Delay
	// Corrupt truncates the message payload so the peer's decoder fails —
	// a deterministic fatal fault.
	Corrupt
	// Kill closes the underlying connection and fails the operation —
	// the clean model of a dead peer.
	Kill
	// Hang blocks the operation until its context ends — the model of a
	// hung peer, detected only by the heartbeat window.
	Hang
	// Hook runs Rule.Hook, then proceeds normally. A worker-side hook
	// that calls os.Exit models kill -9 at a precise protocol point.
	Hook
	// KillReply lets a received request through, then kills the
	// connection at the next send — its reply, on a worker's serve loop —
	// the model of a peer that did the work and died before answering. It
	// is receive-only, so NewScript refuses a Send rule that uses it.
	KillReply
)

// Dir selects which side of the connection a rule watches.
type Dir int

const (
	// Send matches outgoing messages.
	Send Dir = iota
	// Recv matches incoming messages (applied after the read returns).
	Recv
)

// Rule is one scripted fault: on the Nth message in direction Dir whose
// type matches Type (0 = any type), apply Op. Each rule counts its own
// matches and triggers once by default; Count widens the trigger to a
// run of consecutive matches — the shape of a straggling peer, which is
// slow for a stretch of collectives, not exactly one.
type Rule struct {
	Dir   Dir
	Type  byte // message type to match; 0 matches every type
	Nth   int  // 1-based count of matching messages; 0 means 1
	Count int  // matches to fire on, starting at Nth: 0 or 1 = once, n = Nth..Nth+n-1, -1 = every match from Nth on
	Op    Op
	Delay time.Duration // Delay op only
	Hook  func()        // Hook op only
}

// Script holds a set of rules with their trigger state. One Script may
// back several connections (its counters are mutex-guarded), but the
// usual setup is one Script per faulty link.
type Script struct {
	mu    sync.Mutex
	rules []Rule
	seen  []int
	fired []bool
}

// NewScript builds a script from rules. It panics on a Recv rule whose Op
// is Drop or a Send rule whose Op is KillReply, naming the rule.
func NewScript(rules ...Rule) *Script {
	for i, r := range rules {
		if r.Dir == Recv && r.Op == Drop {
			panic(fmt.Sprintf("faults: rule %d (Recv, type %d, Nth %d) drops a received message, which already left its peer; Drop is send-only", i, r.Type, r.Nth))
		}
		if r.Dir == Send && r.Op == KillReply {
			panic(fmt.Sprintf("faults: rule %d (Send, type %d, Nth %d) kills the reply to a sent message, which the peer sends; KillReply is receive-only", i, r.Type, r.Nth))
		}
	}
	return &Script{rules: rules, seen: make([]int, len(rules)), fired: make([]bool, len(rules))}
}

// match returns the first untriggered rule that fires on this message,
// marking it fired.
func (s *Script) match(dir Dir, typ byte) *Rule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.rules {
		r := &s.rules[i]
		if r.Dir != dir || (r.Type != 0 && r.Type != typ) || s.fired[i] {
			continue
		}
		s.seen[i]++
		nth := r.Nth
		if nth <= 0 {
			nth = 1
		}
		if s.seen[i] < nth {
			continue
		}
		switch {
		case r.Count < 0:
			// Unbounded: fires on every match from Nth on, never latches.
		case s.seen[i] >= nth+max(r.Count, 1)-1:
			// Last firing of the run: latch so later matches pass through.
			s.fired[i] = true
		}
		return r
	}
	return nil
}

// Conn wraps a transport connection, applying the script's rules to the
// messages crossing it.
type Conn struct {
	inner  transport.MsgConn
	script *Script

	mu        sync.Mutex
	killReply bool // a KillReply rule fired: the next send kills the link
}

// Wrap applies script to conn.
func Wrap(conn transport.MsgConn, script *Script) *Conn {
	return &Conn{inner: conn, script: script}
}

// Send applies any matching send-side rule, then forwards to the inner
// connection.
func (c *Conn) Send(ctx context.Context, m transport.Msg) error {
	c.mu.Lock()
	kill := c.killReply
	c.killReply = false
	c.mu.Unlock()
	if kill {
		c.inner.Close()
		return fmt.Errorf("faults: connection killed replying with message type %d", m.Type)
	}
	if r := c.script.match(Send, m.Type); r != nil {
		switch r.Op {
		case Drop:
			return fmt.Errorf("faults: dropped message type %d: %w", m.Type, transport.ErrTransient)
		case Delay:
			t := time.NewTimer(r.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		case Corrupt:
			m = corrupt(m)
		case Kill:
			c.inner.Close()
			return fmt.Errorf("faults: connection killed on message type %d", m.Type)
		case Hang:
			<-ctx.Done()
			return ctx.Err()
		case Hook:
			if r.Hook != nil {
				r.Hook()
			}
		}
	}
	return c.inner.Send(ctx, m)
}

// Recv forwards to the inner connection, then applies any matching
// recv-side rule to the message that arrived.
func (c *Conn) Recv(ctx context.Context) (transport.Msg, error) {
	m, err := c.inner.Recv(ctx)
	if err != nil {
		return m, err
	}
	if r := c.script.match(Recv, m.Type); r != nil {
		switch r.Op {
		case Delay:
			t := time.NewTimer(r.Delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return transport.Msg{}, ctx.Err()
			}
		case Corrupt:
			m = corrupt(m)
		case Kill:
			c.inner.Close()
			return transport.Msg{}, fmt.Errorf("faults: connection killed on received message type %d", m.Type)
		case KillReply:
			c.mu.Lock()
			c.killReply = true
			c.mu.Unlock()
		case Hang:
			<-ctx.Done()
			return transport.Msg{}, ctx.Err()
		case Hook:
			if r.Hook != nil {
				r.Hook()
			}
		}
	}
	return m, nil
}

// corrupt deterministically damages a message: the payload — tensor
// lists a send still carries unencoded included — loses its last byte
// (or the type becomes invalid when there is none), so the peer's decoder
// reports a clean error.
func corrupt(m transport.Msg) transport.Msg {
	if p := m.Payload(); len(p) > 0 {
		m.Data, m.Lists = p[:len(p)-1], nil
	} else {
		m.Type = 0xFF
	}
	return m
}

// Close closes the inner connection.
func (c *Conn) Close() error { return c.inner.Close() }

// LocalAddr names the inner connection's local end.
func (c *Conn) LocalAddr() string { return c.inner.LocalAddr() }

var _ transport.MsgConn = (*Conn)(nil)

// Dialer wraps a transport dialer so every dialed connection carries the
// script — the leader-side injection point (wrap one replica's dialer to
// fault that link).
type Dialer struct {
	Inner  transport.Dialer
	Script *Script
}

// Dial dials through the inner dialer and wraps the result.
func (d *Dialer) Dial(ctx context.Context) (transport.MsgConn, error) {
	conn, err := d.Inner.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return Wrap(conn, d.Script), nil
}

// Listener wraps a transport listener so every accepted connection
// carries the script — the worker-side injection point (crash-at flags
// in cmd/pipemare-worker).
type Listener struct {
	Inner  transport.Listener
	Script *Script
}

// Accept accepts through the inner listener and wraps the result.
func (l *Listener) Accept(ctx context.Context) (transport.MsgConn, error) {
	conn, err := l.Inner.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return Wrap(conn, l.Script), nil
}

// Addr names the inner endpoint.
func (l *Listener) Addr() string { return l.Inner.Addr() }

// Close closes the inner listener.
func (l *Listener) Close() error { return l.Inner.Close() }

var (
	_ transport.Dialer   = (*Dialer)(nil)
	_ transport.Listener = (*Listener)(nil)
)
