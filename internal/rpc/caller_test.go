package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/obs"
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

func newPair(t *testing.T, timeout time.Duration, opts ...Option) (*Caller, *transport.Network) {
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
	c := NewCaller(cli, timeout, opts...)
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
// was started with and under the tag it was given; a late Expire or
// Cancel of a settled call delivers nothing more. Go arms no timer, so the
// timeout case expires the call at its Deadline the way a collector does.
// A synchronous Call times out on its own timer, also exactly once.
func TestGoDeliversEveryOutcomeOnce(t *testing.T) {
	const timeout = 30 * time.Millisecond
	answered := replica.PingReq{}           // the echo server replies
	dropped := replica.VersionReq{Key: "k"} // the echo server never replies
	expireAtDeadline := func(c *Caller, call *Call) {
		time.Sleep(time.Until(call.Deadline))
		c.Expire(call)
	}
	cancel := func(c *Caller, call *Call) { c.Cancel(call, context.Canceled) }
	cases := []struct {
		name     string
		req      Request
		settle   func(c *Caller, call *Call) // nil: the reply settles it
		late     func(c *Caller, call *Call) // after the outcome arrived
		want     error                       // nil: the ping reply
		timeouts uint64
	}{
		{name: "reply", req: answered, late: cancel},
		{name: "expire after reply", req: answered, late: (*Caller).Expire},
		{name: "timeout", req: dropped, settle: expireAtDeadline, late: (*Caller).Expire, want: ErrTimeout, timeouts: 1},
		{name: "cancel after timeout", req: dropped, settle: expireAtDeadline, late: cancel, want: ErrTimeout, timeouts: 1},
		{name: "cancel", req: dropped, settle: cancel, late: cancel, want: context.Canceled},
		{name: "expire after cancel", req: dropped, settle: cancel, late: (*Caller).Expire, want: context.Canceled},
		{name: "close", req: dropped, settle: func(c *Caller, _ *Call) { c.Close() }, late: (*Caller).Expire, want: ErrClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newPair(t, timeout, WithMetrics(obs.NewRegistry()))
			done := make(chan *Call, 2) // room for a second outcome, so settling twice is seen, not blocked
			call := c.Go(context.Background(), 1, tc.req, 7, done)
			if call.Deadline.IsZero() || time.Until(call.Deadline) > timeout {
				t.Fatalf("Deadline = %v, want within %v", call.Deadline, timeout)
			}
			if tc.settle != nil {
				tc.settle(c, call)
			}
			got := <-done
			tc.late(c, call)
			if got != call || got.Tag != 7 {
				t.Fatalf("outcome for call %p tag %d, want %p tag 7", got, got.Tag, call)
			}
			if tc.want == nil {
				if pong, ok := got.Resp.(replica.PingResp); !ok || got.Err != nil || pong.Site != 1 {
					t.Errorf("reply = %#v, %v", got.Resp, got.Err)
				}
			} else if !errors.Is(got.Err, tc.want) {
				t.Errorf("outcome %v, want %v", got.Err, tc.want)
			}
			if n := c.timeouts.Value(); n != tc.timeouts {
				t.Errorf("timeouts = %d, want %d", n, tc.timeouts)
			}
			select {
			case <-done:
				t.Error("call settled twice")
			case <-time.After(2 * timeout): // past the call's reply deadline
			}
		})
	}

	t.Run("synchronous call times out", func(t *testing.T) {
		c, _ := newPair(t, timeout, WithMetrics(obs.NewRegistry()))
		start := time.Now()
		_, err := c.Call(context.Background(), 1, dropped)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if waited := time.Since(start); waited < timeout {
			t.Errorf("timed out after %v, before the %v deadline", waited, timeout)
		}
		c.mu.Lock()
		pending := len(c.pending)
		c.mu.Unlock()
		if pending != 0 || c.timeouts.Value() != 1 {
			t.Errorf("after one timed-out Call: %d pending, %d timeouts; want 0, 1", pending, c.timeouts.Value())
		}
	})
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
