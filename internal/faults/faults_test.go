package faults

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"pipemare/internal/tensor"
	"pipemare/internal/transport"
)

// TestScriptMatchWindows drives Script.match with a fixed message
// sequence and pins, rule by rule, which messages fire: a rule counts
// only the messages of its own (Dir, Type), fires on its Nth match for
// Count matches (0 and 1 both mean once, -1 means forever), and then is
// exhausted — later matches pass through untouched.
func TestScriptMatchWindows(t *testing.T) {
	const a, b = byte(1), byte(2)
	type msg struct {
		dir Dir
		typ byte
	}
	// Ten sends of type a interleaved with sends of type b and receives
	// of type a, which a (Send, a) rule must not count.
	var seq []msg
	for i := 0; i < 10; i++ {
		seq = append(seq, msg{Send, a}, msg{Send, b}, msg{Recv, a})
	}
	cases := []struct {
		name string
		rule Rule
		want []int // 1-based indices, among the messages the rule watches, that fire
	}{
		{"Nth defaults to the first match", Rule{Dir: Send, Type: a}, []int{1}},
		{"Nth picks one later match", Rule{Dir: Send, Type: a, Nth: 4}, []int{4}},
		{"Count 1 is once", Rule{Dir: Send, Type: a, Nth: 4, Count: 1}, []int{4}},
		{"Count widens to a run", Rule{Dir: Send, Type: a, Nth: 3, Count: 4}, []int{3, 4, 5, 6}},
		{"Count -1 never exhausts", Rule{Dir: Send, Type: a, Nth: 8, Count: -1}, []int{8, 9, 10}},
		{"Nth past the sequence never fires", Rule{Dir: Send, Type: a, Nth: 11}, nil},
		{"receives count separately from sends", Rule{Dir: Recv, Type: a, Nth: 2, Count: 2}, []int{2, 3}},
		{"type 0 matches every type in its direction", Rule{Dir: Send, Nth: 3, Count: 2}, []int{3, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScript(tc.rule)
			var got []int
			watched := 0
			for _, m := range seq {
				if m.dir != tc.rule.Dir || (tc.rule.Type != 0 && m.typ != tc.rule.Type) {
					if r := s.match(m.dir, m.typ); r != nil {
						t.Fatalf("rule fired on (%d, %d), which it does not watch", m.dir, m.typ)
					}
					continue
				}
				watched++
				if s.match(m.dir, m.typ) != nil {
					got = append(got, watched)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("fired on watched messages %v, want %v", got, tc.want)
			}
		})
	}
}

// TestScriptRulesCountIndependently pins the multi-rule behaviour the
// churn tests script: each rule keeps its own match count, the first
// unexhausted rule that fires wins a message, every unexhausted rule
// ahead of it still counts that message, and an exhausted rule stops
// counting and shadowing altogether.
func TestScriptRulesCountIndependently(t *testing.T) {
	const chunk, other = byte(3), byte(4)
	s := NewScript(
		Rule{Dir: Recv, Type: chunk, Nth: 1, Op: Delay},
		Rule{Dir: Recv, Type: chunk, Nth: 2, Op: Kill},
		Rule{Dir: Send, Type: other, Nth: 2, Op: Drop},
	)
	steps := []struct {
		dir  Dir
		typ  byte
		want *Op // nil: passes through
	}{
		{Recv, chunk, op(Delay)}, // rule 0 fires and is exhausted; rule 1 never saw this one
		{Send, other, nil},       // rule 2's first match: counted, not fired
		{Recv, chunk, nil},       // rule 1's first match
		{Recv, chunk, op(Kill)},  // rule 1's second
		{Send, other, op(Drop)},
		{Recv, chunk, nil}, // every rule exhausted
		{Send, other, nil},
	}
	for i, st := range steps {
		r := s.match(st.dir, st.typ)
		switch {
		case r == nil && st.want != nil:
			t.Fatalf("step %d: passed through, want op %d", i, *st.want)
		case r != nil && st.want == nil:
			t.Fatalf("step %d: fired op %d, want a pass-through", i, r.Op)
		case r != nil && r.Op != *st.want:
			t.Fatalf("step %d: fired op %d, want %d", i, r.Op, *st.want)
		}
	}
	if r := (*Script)(nil).match(Send, chunk); r != nil {
		t.Fatal("a nil script fired a rule")
	}
}

func op(o Op) *Op { return &o }

// linked returns the two ends of one loopback connection, the dialing end
// wrapped with the script.
func linked(t *testing.T, ctx context.Context, script *Script) (near, far transport.MsgConn) {
	t.Helper()
	lis, dial := transport.Loopback()
	t.Cleanup(func() { lis.Close() })
	accepted := make(chan transport.MsgConn, 1)
	go func() {
		c, _ := lis.Accept(ctx)
		accepted <- c
	}()
	near, err := (&Dialer{Inner: dial, Script: script}).Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if far = <-accepted; far == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { near.Close(); far.Close() })
	return near, far
}

// TestCorruptReachesTensorLists pins Corrupt on a send whose payload is
// still tensors: the injector must damage the payload the frames will
// carry — not the empty Data of a list-carrying message — so the peer
// receives one byte less than was sent and its decoder reports a clean
// error, exactly as when the sender staged the payload itself.
func TestCorruptReachesTensorLists(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	near, far := linked(t, ctx, NewScript(Rule{Dir: Send, Type: transport.MsgSetGrads, Nth: 2, Op: Corrupt}))
	grads := []*tensor.Tensor{tensor.New(3, 2), tensor.New(70000)} // spans three frames
	grads[0].Fill(1.5)
	grads[1].Fill(-2)
	sent := transport.Msg{Type: transport.MsgSetGrads, Stage: 1, Lists: [][]*tensor.Tensor{grads}}
	go func() {
		near.Send(ctx, sent)
		near.Send(ctx, sent)
	}()
	for i, wantDamage := range []bool{false, true} {
		got, err := far.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c := transport.NewCursor(got.Data)
		c.TensorsInto(nil)
		err = c.Done()
		switch {
		case !wantDamage && (err != nil || !bytes.Equal(got.Data, sent.Payload())):
			t.Fatalf("send %d passed through damaged: %v", i, err)
		case wantDamage && (err == nil || len(got.Data) != sent.PayloadLen()-1 || got.Type != sent.Type):
			t.Fatalf("send %d: corrupt left %d of %d payload bytes, decode error %v", i, len(got.Data), sent.PayloadLen(), err)
		}
	}
}

// TestDelayedRecvKeepsData pins the injector against the receive
// contract: a message's Data lives in the connection's buffer until the
// next Recv, and a Delay rule only holds the message across its own
// sleep — it never reads ahead — so what it finally returns is intact.
func TestDelayedRecvKeepsData(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	near, far := linked(t, ctx, NewScript(Rule{Dir: Recv, Op: Delay, Delay: 30 * time.Millisecond}))
	first := bytes.Repeat([]byte{0xAB}, 300000)
	go func() {
		far.Send(ctx, transport.Msg{Type: transport.MsgState, Data: first})
		far.Send(ctx, transport.Msg{Type: transport.MsgState, Data: bytes.Repeat([]byte{0xCD}, 300000)})
	}()
	got, err := near.Recv(ctx) // delayed while the second message waits on the pipe
	if err != nil || !bytes.Equal(got.Data, first) {
		t.Fatalf("delayed message damaged: err %v", err)
	}
	if got, err = near.Recv(ctx); err != nil || got.Data[0] != 0xCD || len(got.Data) != len(first) {
		t.Fatalf("second message: err %v", err)
	}
}
