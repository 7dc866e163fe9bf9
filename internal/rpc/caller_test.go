package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// echoServer answers pings and drops everything else.
func echoServer(ep *transport.Endpoint, site int) {
	for msg := range ep.Recv() {
		if req, ok := msg.Payload.(replica.PingReq); ok {
			_ = ep.Send(msg.From, replica.PingResp{ReqID: req.ReqID, Site: site})
		}
	}
}

func newPair(t *testing.T, timeout time.Duration) (*Caller, *transport.Network) {
	t.Helper()
	n := transport.NewNetwork()
	srv, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	go echoServer(srv, 1)
	cli, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(cli, timeout)
	t.Cleanup(func() {
		c.Close()
		n.Close()
	})
	return c, n
}

func TestCallRoundTrip(t *testing.T) {
	c, _ := newPair(t, time.Second)
	resp, err := c.Call(context.Background(), 1, replica.PingReq{})
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := resp.(replica.PingResp)
	if !ok || pong.Site != 1 {
		t.Errorf("resp = %#v", resp)
	}
	if c.Timeout() != time.Second {
		t.Errorf("Timeout = %v", c.Timeout())
	}
}

func TestCallTimeout(t *testing.T) {
	c, _ := newPair(t, 30*time.Millisecond)
	// VersionReq is dropped by the echo server → timeout.
	_, err := c.Call(context.Background(), 1, replica.VersionReq{Key: "k"})
	if err == nil {
		t.Fatal("dropped request did not time out")
	}
}

func TestCallContextCancel(t *testing.T) {
	c, _ := newPair(t, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// VersionReq is never answered by the echo server.
		_, err := c.Call(ctx, 1, replica.VersionReq{Key: "k"})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call did not honor cancellation")
	}
}

func TestCallAfterClose(t *testing.T) {
	c, _ := newPair(t, time.Second)
	c.Close()
	c.Close() // idempotent
	if _, err := c.Call(context.Background(), 1, replica.PingReq{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestCallUnknownDestination(t *testing.T) {
	c, _ := newPair(t, time.Second)
	if _, err := c.Call(context.Background(), 99, replica.PingReq{}); err == nil {
		t.Error("unknown destination accepted")
	}
}

// TestGoDeliversEveryOutcomeOnce: a reply, a timeout, a cancellation and
// Close each settle an asynchronous call exactly once, on the channel it
// was started with and under the tag it was given.
func TestGoDeliversEveryOutcomeOnce(t *testing.T) {
	c, _ := newPair(t, 30*time.Millisecond)
	ctx := context.Background()
	done := make(chan *Call, 4)
	answered := c.Go(ctx, 1, replica.PingReq{}, 0, done)
	c.Go(ctx, 1, replica.VersionReq{Key: "k"}, 1, done) // dropped by the echo server
	c.Cancel(c.Go(ctx, 1, replica.VersionReq{Key: "k"}, 2, done), context.Canceled)
	got := make(map[int]*Call)
	for i := 0; i < 3; i++ {
		call := <-done
		got[call.Tag] = call
	}
	c.Go(ctx, 1, replica.VersionReq{Key: "k"}, 3, done)
	c.Close()
	call := <-done
	got[call.Tag] = call
	c.Cancel(answered, context.Canceled) // already settled: no second outcome

	if pong, ok := got[0].Resp.(replica.PingResp); !ok || got[0].Err != nil || pong.Site != 1 {
		t.Errorf("answered call = %#v, %v", got[0].Resp, got[0].Err)
	}
	for tag, want := range map[int]error{1: ErrTimeout, 2: context.Canceled, 3: ErrClosed} {
		if got[tag] == nil || !errors.Is(got[tag].Err, want) {
			t.Errorf("call %d: outcome %+v, want %v", tag, got[tag], want)
		}
	}
	select {
	case extra := <-done:
		t.Errorf("call %d settled twice", extra.Tag)
	case <-time.After(60 * time.Millisecond): // past every call's reply timer
	}
}

func TestFireAndForgetSend(t *testing.T) {
	c, _ := newPair(t, time.Second)
	if err := c.Send(1, replica.PingReq{}); err != nil {
		t.Errorf("Send: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c, _ := newPair(t, time.Second)
	const calls = 50
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.Call(context.Background(), 1, replica.PingReq{})
			errs <- err
		}()
	}
	for i := 0; i < calls; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestReqIDOfAllTypes(t *testing.T) {
	tests := []struct {
		payload any
		want    uint64
	}{
		{replica.ReadResp{ReqID: 1}, 1},
		{replica.VersionResp{ReqID: 2}, 2},
		{replica.PrepareResp{ReqID: 3}, 3},
		{replica.CommitResp{ReqID: 4}, 4},
		{replica.AbortResp{ReqID: 5}, 5},
		{replica.PingResp{ReqID: 6}, 6},
	}
	for _, tt := range tests {
		id, ok := ReqIDOf(tt.payload)
		if !ok || id != tt.want {
			t.Errorf("ReqIDOf(%T) = %d,%v", tt.payload, id, ok)
		}
	}
	if _, ok := ReqIDOf(42); ok {
		t.Error("int payload produced a request ID")
	}
}
