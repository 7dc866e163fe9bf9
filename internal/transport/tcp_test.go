package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"arbor/internal/wire"
)

func countGoroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}

// ping builds a distinguishable protocol message; the codec's message set is
// closed, so tests speak real wire types.
func ping(n int) wire.PingReq { return wire.PingReq{ReqID: uint64(n)} }

func newTCPPair(t *testing.T) (*TCPNetwork, *TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, a, b
}

func recvOne(t *testing.T, ep *TCPEndpoint) Message {
	t.Helper()
	select {
	case msg := <-ep.Recv():
		return msg
	case <-time.After(2 * time.Second):
		t.Fatal("no message delivered")
		return Message{}
	}
}

func TestTCPSendReceive(t *testing.T) {
	_, a, b := newTCPPair(t)
	if err := a.Send(2, wire.ReadReq{ReqID: 7, Key: "hello"}); err != nil {
		t.Fatal(err)
	}
	msg := recvOne(t, b)
	if msg.From != 1 || msg.To != 2 {
		t.Errorf("envelope = %+v", msg)
	}
	p, ok := msg.Payload.(wire.ReadReq)
	if !ok || p.Key != "hello" || p.ReqID != 7 {
		t.Errorf("payload = %#v", msg.Payload)
	}
}

func TestTCPBidirectional(t *testing.T) {
	_, a, b := newTCPPair(t)
	if err := a.Send(2, ping(1)); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); got.Payload.(wire.PingReq).ReqID != 1 {
		t.Fatal("ping lost")
	}
	if err := b.Send(1, wire.PingResp{ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); got.Payload.(wire.PingResp).ReqID != 1 {
		t.Fatal("pong lost")
	}
}

func TestTCPManyMessagesReuseConnections(t *testing.T) {
	n, a, b := newTCPPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(2, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool, count)
	for i := 0; i < count; i++ {
		msg := recvOne(t, b)
		seen[msg.Payload.(wire.PingReq).ReqID] = true
	}
	if len(seen) != count {
		t.Errorf("received %d distinct messages, want %d", len(seen), count)
	}
	// The pool is bounded: many pipelined messages share the configured
	// number of connections instead of opening one per request.
	if conns := a.Conns(); conns > n.opts.connsPerPeer {
		t.Errorf("pooled %d connections, want at most %d", conns, n.opts.connsPerPeer)
	}
}

func TestTCPUnknownDestination(t *testing.T) {
	_, a, _ := newTCPPair(t)
	if err := a.Send(99, ping(0)); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestTCPDuplicateRegister(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	if _, err := n.Register(5); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(5); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("err = %v, want ErrDuplicateAddr", err)
	}
	if _, err := n.Dial(5); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("dial err = %v, want ErrDuplicateAddr", err)
	}
}

func TestTCPCloseIsIdempotentAndStopsRegister(t *testing.T) {
	n := NewTCPNetwork()
	if _, err := n.Register(1); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	if _, err := n.Register(2); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

// TestTCPDialOnlyEndpointHearsReplies exercises the client shape: a
// dial-only endpoint (no listener) sends to a listener and receives the
// reply over the connection it opened, routed by the HELLO's address.
func TestTCPDialOnlyEndpointHearsReplies(t *testing.T) {
	n := NewTCPNetwork()
	defer n.Close()
	srvConn, err := n.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	srv := srvConn.(*TCPEndpoint)
	cliConn, err := n.Dial(-3)
	if err != nil {
		t.Fatal(err)
	}
	cli := cliConn.(*TCPEndpoint)

	if err := cli.Send(7, ping(42)); err != nil {
		t.Fatal(err)
	}
	msg := recvOne(t, srv)
	if msg.From != -3 {
		t.Fatalf("server saw sender %d, want -3", msg.From)
	}
	if err := srv.Send(-3, wire.PingResp{ReqID: 42}); err != nil {
		t.Fatal(err)
	}
	reply := recvOne(t, cli)
	if reply.Payload.(wire.PingResp).ReqID != 42 {
		t.Fatalf("reply = %#v", reply.Payload)
	}
	// The reply must have reused the dialer's connection: the server never
	// dials back (the client has no listener), so its pool holds only
	// accepted connections.
	if srv.Conns() < 1 {
		t.Error("server pooled no connection for the reply route")
	}
}

// TestTCPCodecMismatchRefusesConnection dials a listener with a raw socket
// and announces a codec in the HELLO. The acceptor must close the
// connection on a name or version mismatch and deliver nothing, even when a
// well-formed frame follows the handshake. The matching case proves the
// hand-built HELLO and frame are otherwise valid.
func TestTCPCodecMismatchRefusesConnection(t *testing.T) {
	cases := []struct {
		name    string
		codec   string
		version byte
		accept  bool
	}{
		{"binary/v1", "binary", 1, false},
		{"gob/v1", "gob", 1, false},
		{"binary/v2", "binary", 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewTCPNetwork()
			defer n.Close()
			srv, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", srv.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			hello := append([]byte(nil), helloMagic[:]...)
			hello = append(hello, tc.version)
			hello = binary.AppendUvarint(hello, uint64(len(tc.codec)))
			hello = append(hello, tc.codec...)
			hello = binary.AppendVarint(hello, -1)
			frame := binary.AppendVarint(nil, -1)
			frame = binary.AppendVarint(frame, 1)
			frame, err = wire.Binary().Encode(frame, ping(7))
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			for _, body := range [][]byte{hello, frame} {
				out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
				out = append(out, body...)
			}
			if _, err := c.Write(out); err != nil {
				t.Fatal(err)
			}

			if tc.accept {
				if got := recvOne(t, srv).Payload; got != ping(7) {
					t.Fatalf("delivered %#v, want %#v", got, ping(7))
				}
				return
			}
			// The acceptor closes its end: the read ends in EOF or a reset,
			// not in our deadline.
			_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
			_, err = c.Read(make([]byte, 1))
			var ne net.Error
			if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("acceptor kept the connection open (read err %v)", err)
			}
			select {
			case msg := <-srv.Recv():
				t.Fatalf("mismatched codec delivered %#v", msg.Payload)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

func TestTCPSendAfterPeerGone(t *testing.T) {
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := a.Send(2, ping(0)); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	// Kill b's side; a's pooled connections eventually break. Send may need
	// a few attempts before the OS surfaces the reset, but must not panic
	// or hang.
	b.close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(2, ping(1)); err != nil {
			return // surfaced the broken peer
		}
	}
	t.Log("sends kept succeeding into OS buffers; acceptable for a datagram-like API")
}

func TestTCPConcurrentSenders(t *testing.T) {
	_, a, b := newTCPPair(t)
	const (
		workers = 8
		each    = 50
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < each; i++ {
				if err := a.Send(2, ping(w*each+i)); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers*each; i++ {
		recvOne(t, b)
	}
}

// TestTCPCloseStopsGoroutines guards against leaked accept/read loops.
func TestTCPCloseStopsGoroutines(t *testing.T) {
	baseline := countGoroutines()
	n := NewTCPNetwork()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(2, ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		recvOne(t, b)
	}
	n.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if countGoroutines() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, after close %d", baseline, countGoroutines())
}
