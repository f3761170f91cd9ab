package pipemare_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pipemare"
	"pipemare/internal/nn"
	"pipemare/internal/optim"
	"pipemare/internal/transport"
)

// wireLog records every message the leader sends on the connections it
// is attached to — type, stage and payload, in send order. One connection
// has one sender at a time (the member proxy's lock), so the order on a
// log is the protocol's, not the scheduler's.
type wireLog struct {
	mu   sync.Mutex
	msgs []transport.Msg
}

func (l *wireLog) add(m transport.Msg) {
	m.Data, m.Lists = bytes.Clone(m.Payload()), nil
	l.mu.Lock()
	l.msgs = append(l.msgs, m)
	l.mu.Unlock()
}

// transcript renders the log as one "type/stage/bytes" token per message.
func (l *wireLog) transcript() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.msgs))
	for i, m := range l.msgs {
		out[i] = fmt.Sprintf("%d/%d/%d", m.Type, m.Stage, len(m.Data))
	}
	return out
}

// payloads returns the payloads of the logged messages of one type, in
// send order.
func (l *wireLog) payloads(typ byte) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]byte
	for _, m := range l.msgs {
		if m.Type == typ {
			out = append(out, m.Data)
		}
	}
	return out
}

type logConn struct {
	transport.MsgConn
	log *wireLog
}

func (c logConn) Send(ctx context.Context, m transport.Msg) error {
	c.log.add(m)
	return c.MsgConn.Send(ctx, m)
}

// logDialer logs the leader's end of a dialed follower link.
type logDialer struct {
	pipemare.Dialer
	log *wireLog
}

func (d logDialer) Dial(ctx context.Context) (transport.MsgConn, error) {
	conn, err := d.Dialer.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return logConn{conn, d.log}, nil
}

// logListener logs the leader's end of an accepted joiner link.
type logListener struct {
	pipemare.Listener
	log *wireLog
}

func (l logListener) Accept(ctx context.Context) (transport.MsgConn, error) {
	conn, err := l.Listener.Accept(ctx)
	if err != nil {
		return nil, err
	}
	return logConn{conn, l.log}, nil
}

// wireTranscripts is what the leader sends in each session: "type/stage/
// payload bytes" per message. Every session opens with the hello, and
// every follower — dialled at launch or joining — is then admitted by the
// state handoff (P × 14, P × 21) before it trains. A ring message (21)
// carries the stage's own ring, as deep as that stage's lookback: at P = 4,
// N = 8 stages 0–2 keep 2 versions once a step is in, and the last stage
// keeps 1, so its message is a version shorter. In the training
// rows after that, each chunk (3) says whether it is chunk 0, each stage
// its follower owns is stepped by one message (10, carrying the f64 clip
// scale), and each stage it does not own is imported as masters alone
// (23), plus the moments under fault tolerance — never T2's δ and
// corrected weights, which the follower replays. Lengths, not float
// bytes, so the table holds on any GOARCH.
var wireTranscripts = map[string]string{
	"sharded/plain/follower": `
		1/-1/90 14/0/79 14/1/79 14/2/79 14/3/79 21/0/37 21/1/37 21/2/37 21/3/37
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/29 23/1/29
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/29 23/1/29
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/29 23/1/29
		19/-1/0
	`,
	"sharded/join/joiner": `
		1/-1/90 14/0/104 14/1/104 14/2/104 14/3/104 21/0/66 21/1/66 21/2/66 21/3/37
		3/-1/34 5/3/29 6/3/4 10/3/8 12/3/0 23/0/54 23/1/54 23/2/54
		19/-1/0
	`,
	"sharded/join/follower": `
		1/-1/90 14/0/104 14/1/104 14/2/104 14/3/104 21/0/37 21/1/37 21/2/37 21/3/37
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/54 23/1/54
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/54 23/1/54
		3/-1/34 5/2/29 6/2/4 10/2/8 12/2/0 23/0/54 23/1/54 23/3/54
		19/-1/0
	`,
	"sharded/restore/follower": `
		1/-1/90 14/0/104 14/1/104 14/2/104 14/3/104 21/0/37 21/1/37 21/2/37 21/3/37
		14/0/104 14/1/104 14/2/104 14/3/104 21/0/66 21/1/66 21/2/66 21/3/37
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/54 23/1/54
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/54 23/1/54
		3/-1/42 5/2/29 5/3/29 6/2/4 6/3/4 10/2/8 10/3/8 12/2/0 12/3/0 23/0/54 23/1/54
		19/-1/0
	`,
}

// TestWireTranscript pins the leader's side of the session protocol: for
// an R=2 loopback run of three optimizer steps — plain, with a third
// replica joining by live handoff at step 2, and resumed from a
// checkpoint, whose restore hands the state off once more — the messages
// the leader sends each follower are the recorded ones: same types, order,
// stages and payload lengths. An old worker of the same wire version
// serves a new leader exactly when this holds, and internal/faults
// scripts, which count messages by type, keep hitting the message they
// were written for.
func TestWireTranscript(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 24, 8, 41) } // 3 minibatches per epoch
	base := ftBase()
	with := func(extra ...pipemare.Option) []pipemare.Option {
		return append(append([]pipemare.Option{}, base...), extra...)
	}
	check := func(name string, log *wireLog) {
		t.Helper()
		got := log.transcript()
		if want := strings.Fields(wireTranscripts[name]); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: the leader sent\n%s\nwant\n%s", name, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	for _, kind := range []string{"plain", "join", "restore"} {
		t.Run("sharded/"+kind, func(t *testing.T) {
			follower, joiner := &wireLog{}, &wireLog{}
			dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
			dialers[0] = logDialer{dialers[0], follower}
			opts := with(pipemare.WithReplicas(2), pipemare.WithTransport(dialers...))
			var tr *pipemare.Trainer
			var err error
			var jwait func() error
			switch kind {
			case "plain":
				tr, err = pipemare.New(build(), opts...)
			case "join":
				tr, err = pipemare.New(build(), append(opts, pipemare.WithElastic())...)
				if err == nil {
					var jlis pipemare.Listener
					jlis, jwait = startJoiner(t, build, with(pipemare.WithJoinAt(2)))
					acceptAndPark(t, tr, logListener{jlis, joiner})
				}
			case "restore":
				// The head of the run: one epoch on a single replica,
				// checkpointed every step. The resumed R=2 run pushes the
				// restored state to its follower, then trains on.
				dir := t.TempDir()
				runCurve(t, build, 1, 1, with(pipemare.WithCheckpoint(dir, 1))...)
				tr, err = pipemare.Restore(dir, build(), append(opts, pipemare.WithCheckpoint(dir, 1))...)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if jwait != nil {
				if err := jwait(); err != nil {
					t.Fatalf("joiner: %v", err)
				}
				check("sharded/join/joiner", joiner)
			}
			for i, werr := range wait() {
				if werr != nil {
					t.Fatalf("worker %d: %v", i+1, werr)
				}
			}
			check("sharded/"+kind+"/follower", follower)
		})
	}
}

// TestCheckpointSectionsAreHandoffPayloads pins "wire = checkpoint =
// handoff" literally. A T2 + AdamW leader under the fault-tolerant layout
// checkpoints every step and admits a joiner at the step-2 boundary —
// the checkpoint hook runs first, then the handoff, over the same state.
// The step-2 file's stage sections must then be, byte for byte, the
// MsgSetState payloads the joiner was sent, and its ring sections the
// MsgSetRing payloads.
func TestCheckpointSectionsAreHandoffPayloads(t *testing.T) {
	build := func() pipemare.Task { return newQuadTask(4, 24, 8, 43) }
	base := append(ftBase(), pipemare.WithOptimizer(func(ps []*nn.Param) pipemare.Optimizer {
		return optim.NewAdamW(ps, 0.9, 0.98, 1e-9, 1e-4)
	}))
	with := func(extra ...pipemare.Option) []pipemare.Option {
		return append(append([]pipemare.Option{}, base...), extra...)
	}
	dir := t.TempDir()
	joiner := &wireLog{}
	dialers, _, wait := startWorkers(t, 1, build, func() []pipemare.Option { return base })
	jlis, jwait := startJoiner(t, build, with(pipemare.WithJoinAt(2)))
	tr, err := pipemare.New(build(), with(pipemare.WithReplicas(2),
		pipemare.WithFaultTolerance(), pipemare.WithElastic(), pipemare.WithCheckpoint(dir, 1),
		pipemare.WithTransport(dialers...))...)
	if err != nil {
		t.Fatal(err)
	}
	acceptAndPark(t, tr, logListener{jlis, joiner})
	if _, err := tr.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jwait(); err != nil {
		t.Fatalf("joiner: %v", err)
	}
	for i, werr := range wait() {
		if werr != nil {
			t.Fatalf("worker %d: %v", i+1, werr)
		}
	}

	const p = 4
	states, rings := joiner.payloads(transport.MsgSetState), joiner.payloads(transport.MsgSetRing)
	if len(states) < p || len(rings) != p {
		t.Fatalf("the joiner was sent %d stage states and %d rings, want at least %d and exactly %d", len(states), len(rings), p, p)
	}
	// The handoff's imports come first; the step-3 gather's follow.
	want := append(append([][]byte{}, states[:p]...), rings...)
	raw, err := os.ReadFile(filepath.Join(dir, "ckpt-00000002.pm"))
	if err != nil {
		t.Fatal(err)
	}
	meta, raw, err := transport.NextMessage(raw)
	if err != nil || meta.Stage != -1 {
		t.Fatalf("meta section: stage %d, err %v", meta.Stage, err)
	}
	for i, payload := range want {
		var sec transport.Msg
		if sec, raw, err = transport.NextMessage(raw); err != nil {
			t.Fatal(err)
		}
		if int(sec.Stage) != i%p {
			t.Fatalf("section %d is for stage %d, want %d", i, sec.Stage, i%p)
		}
		if !bytes.Equal(sec.Data, payload) {
			t.Fatalf("section %d (stage %d, %d bytes) differs from the handoff's payload (%d bytes)", i, sec.Stage, len(sec.Data), len(payload))
		}
	}
	end, raw, err := transport.NextMessage(raw)
	if err != nil || len(end.Data) != 0 || len(raw) != 0 {
		t.Fatalf("after the %d sections: %d-byte section, %d bytes left, err %v; want the empty end marker and nothing", 2*p, len(end.Data), len(raw), err)
	}
}
