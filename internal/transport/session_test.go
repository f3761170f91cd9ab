package transport

import (
	"context"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pipemare/internal/replica"
	"pipemare/internal/tensor"
)

// FuzzSession drives the worker's one session function, ServeConn, with
// arbitrary first messages from the leader's end of a loopback
// connection — two messages of any type and payload, then a hang-up. The
// session must refuse or serve and then end within a deadline: it never
// panics, never serves without a valid hello first, and leaves no
// goroutine behind.
func FuzzSession(f *testing.F) {
	const p = 2
	// A hello: the recipe rides as opaque bytes, which the builder
	// (here a stub) decodes.
	hello := Spec{Replica: 1, Replicas: 2, Stages: p, Heartbeat: time.Millisecond, Recipe: []byte{0, 0, 0, 2, 1}}.encode()
	none := []byte(nil)
	f.Add(byte(MsgHello), hello, byte(MsgBye), none)
	f.Add(byte(MsgJoin), AppendU32(nil, 0), byte(MsgHello), hello)
	f.Add(byte(MsgHello), hello[:len(hello)-3], byte(MsgBye), none)
	f.Add(byte(MsgHello), Spec{Replica: 1, Replicas: 2, Stages: p + 1}.encode(), byte(MsgBye), none)
	// A recipe length past the payload's end; and a hello announcing more
	// stages than the member built has, then a state read: the session
	// sizes its per-stage buffers by the member, not the announcement.
	f.Add(byte(MsgHello), append(hello[:20:20], 0, 0, 1, 0), byte(MsgBye), none)
	f.Add(byte(MsgHello), Spec{Replica: 1, Replicas: 2, Stages: p + 1}.encode(), byte(MsgGetState), none)
	f.Add(byte(99), []byte{1, 2, 3}, byte(MsgHello), hello)
	// Chunk 0 from microbatch 0, asynchronous: one microbatch of sample 0.
	chunk := AppendU32(AppendU32(AppendU32(AppendBool(AppendBool(AppendU32(nil, 0), true), true), 1), 1), 0)
	f.Add(byte(MsgHello), hello, byte(MsgRunChunk), chunk)
	// A gather import of one scalar: the stage's masters.
	f.Add(byte(MsgHello), hello, byte(MsgImport), AppendTensors(nil, []*tensor.Tensor{tensor.New(1)}))
	// A stage step under clip scale 0.5, whole and with its f64 cut short.
	step := AppendF64(nil, 0.5)
	f.Add(byte(MsgHello), hello, byte(MsgStep), step)
	f.Add(byte(MsgHello), hello, byte(MsgStep), step[:7])
	f.Fuzz(func(t *testing.T, typ1 byte, data1 []byte, typ2 byte, data2 []byte) {
		baseline := packageGoroutines()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		a, b := net.Pipe()
		leader, worker := NewConn(a), NewConn(b)
		done := make(chan error, 1)
		go func() {
			err := ServeConn(ctx, worker, func(Spec) (replica.Local, error) { return newWireMember(p), nil })
			worker.Close()
			done <- err
		}()
		// Read every reply (and heartbeat) until the hang-up, so a worker
		// reply never blocks on the synchronous pipe.
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				if _, err := leader.Recv(ctx); err != nil {
					return
				}
			}
		}()
		for _, m := range []Msg{{Type: typ1, Stage: -1, Data: data1}, {Type: typ2, Stage: 0, Data: data2}} {
			if leader.Send(ctx, m) != nil {
				break
			}
		}
		leader.Close()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the session outlived its connection")
		}
		<-drained
		if typ1 != MsgHello && err == nil {
			t.Fatalf("first message type %d: the session served without a hello", typ1)
		}
		for deadline := time.Now().Add(5 * time.Second); packageGoroutines() > baseline && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := packageGoroutines(); n > baseline {
			t.Fatalf("%d goroutines this package started are live after the session, baseline %d", n, baseline)
		}
	})
}

// packageGoroutines counts the live goroutines this package's code
// started: what a session could leave behind. A count of every goroutine
// would also see the fuzzing engine's own, which come and go between
// inputs.
func packageGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "\ncreated by pipemare/internal/transport.")
}
