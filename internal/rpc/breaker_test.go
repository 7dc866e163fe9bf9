package rpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"arbor/internal/replica"
	"arbor/internal/transport"
)

// TestBreakerStateMachine drives one site's breaker through the full
// closed → open → half-open → closed/reopen cycle directly.
func TestBreakerStateMachine(t *testing.T) {
	s := newBreakerSet(BreakerConfig{Threshold: 3, Cooldown: 10 * time.Millisecond, Seed: 7})
	site := transport.Addr(1)
	// open is the site's entry in a batch snapshot, which must agree with
	// state at every step.
	open := func() bool {
		var out [2]bool
		s.open([]transport.Addr{site, 2}, out[:])
		if out[1] {
			t.Fatal("never-called site reported open")
		}
		return out[0]
	}

	if st := s.state(site); st != BreakerClosed || open() {
		t.Fatalf("initial state = %v, open %v; want closed", st, open())
	}
	// Two failures: still closed; a success resets the run.
	s.failure(site)
	s.failure(site)
	s.success(site)
	s.failure(site)
	s.failure(site)
	if st := s.state(site); st != BreakerClosed {
		t.Fatalf("state after interrupted run = %v, want closed", st)
	}
	// Third consecutive failure trips it.
	s.failure(site)
	if st := s.state(site); st != BreakerOpen || !open() {
		t.Fatalf("state after threshold = %v, open %v; want open", st, open())
	}
	if ok, _ := s.admit(site); ok {
		t.Fatal("open breaker admitted a call")
	}

	// Cooldown (jittered into [5ms, 15ms)) expires: half-open, exactly one
	// probe admitted.
	time.Sleep(20 * time.Millisecond)
	if st := s.state(site); st != BreakerHalfOpen || open() {
		t.Fatalf("state after cooldown = %v, open %v; want half-open", st, open())
	}
	ok, probe := s.admit(site)
	if !ok || !probe {
		t.Fatalf("half-open admit = (%v, %v), want (true, true)", ok, probe)
	}
	if ok, _ := s.admit(site); ok {
		t.Fatal("second call admitted while probe in flight")
	}

	// Failed probe: reopen with a doubled cooldown.
	s.failure(site)
	if st := s.state(site); st != BreakerOpen || !open() {
		t.Fatalf("state after failed probe = %v, open %v; want open", st, open())
	}

	// A released probe (context cancelled) leaves the breaker testable.
	time.Sleep(45 * time.Millisecond) // doubled cooldown jitters into [10ms, 30ms)
	if ok, probe := s.admit(site); !ok || !probe {
		t.Fatal("no probe admitted after second cooldown")
	}
	s.release(site)
	ok, probe = s.admit(site)
	if !ok || !probe {
		t.Fatalf("admit after release = (%v, %v), want (true, true)", ok, probe)
	}

	// Successful probe closes the breaker.
	s.success(site)
	if st := s.state(site); st != BreakerClosed || open() {
		t.Fatalf("state after successful probe = %v, open %v; want closed", st, open())
	}
	if n := s.opened.Load(); n != 0 {
		t.Errorf("%d breakers counted open after the only one closed", n)
	}
	if ok, probe := s.admit(site); !ok || probe {
		t.Fatalf("closed admit = (%v, %v), want (true, false)", ok, probe)
	}
}

func TestBreakerCooldownCapped(t *testing.T) {
	s := newBreakerSet(BreakerConfig{Threshold: 1, Cooldown: time.Millisecond, MaxCooldown: 4 * time.Millisecond})
	site := transport.Addr(3)
	s.failure(site)
	for i := 0; i < 10; i++ {
		s.failure(site) // failed probes double the cooldown
	}
	s.mu.Lock()
	got := s.m[site].cooldown
	s.mu.Unlock()
	if got != 4*time.Millisecond {
		t.Errorf("cooldown after repeated failures = %v, want capped 4ms", got)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for st, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}

// deadPair returns a caller whose only peer never answers, with breakers
// armed.
func deadPair(t *testing.T, timeout time.Duration, cfg BreakerConfig) *Caller {
	t.Helper()
	n := transport.NewNetwork()
	if _, err := n.Register(1); err != nil { // registered but never reads
		t.Fatal(err)
	}
	cli, err := n.Register(-1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCaller(cli, timeout, WithBreaker(cfg))
	t.Cleanup(func() {
		c.Close()
		n.Close()
	})
	return c
}

// TestCallerBreakerFastFails: once the breaker opens, calls fail in
// microseconds with ErrBreakerOpen instead of burning the full timeout.
func TestCallerBreakerFastFails(t *testing.T) {
	timeout := 20 * time.Millisecond
	c := deadPair(t, timeout, BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	ping := replica.PingReq{}

	for i := 0; i < 2; i++ {
		if _, err := c.Call(context.Background(), 1, ping); !errors.Is(err, ErrTimeout) {
			t.Fatalf("call %d: err = %v, want timeout", i, err)
		}
	}
	if st := c.BreakerState(1); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	start := time.Now()
	_, err := c.Call(context.Background(), 1, ping)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if elapsed >= timeout {
		t.Errorf("fast-fail took %v, should not burn the %v timeout", elapsed, timeout)
	}
	states := c.BreakerStates()
	if states[1] != BreakerOpen {
		t.Errorf("BreakerStates()[1] = %v, want open", states[1])
	}
	open := make([]bool, 2)
	if c.OpenBreakers([]transport.Addr{2, 1}, open); open[0] || !open[1] {
		t.Errorf("OpenBreakers(2, 1) = %v, want [false true]", open)
	}
}

// TestCallerForceProbe: ForceProbe bypasses an open breaker (the call really
// goes out and times out) and its failure keeps feeding the breaker.
func TestCallerForceProbe(t *testing.T) {
	c := deadPair(t, 15*time.Millisecond, BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	ping := replica.PingReq{}

	if _, err := c.Call(context.Background(), 1, ping); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	if st := c.BreakerState(1); st != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	if _, err := c.Call(context.Background(), 1, ping, ForceProbe()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("forced call err = %v, want ErrTimeout (went through the open breaker)", err)
	}
}

// TestCallerBreakerDisabled: without WithBreaker every call is admitted and
// state accessors report closed/nil.
func TestCallerBreakerDisabled(t *testing.T) {
	c, _ := newPair(t, time.Second)
	if st := c.BreakerState(1); st != BreakerClosed {
		t.Errorf("BreakerState = %v, want closed", st)
	}
	if states := c.BreakerStates(); states != nil {
		t.Errorf("BreakerStates = %v, want nil", states)
	}
	open := []bool{true}
	if c.OpenBreakers([]transport.Addr{1}, open); open[0] {
		t.Error("OpenBreakers reported an open breaker with breakers disabled")
	}
}

// TestSendHook: SetSendHook observes fire-and-forget sends (the repair-test
// synchronization point).
func TestSendHook(t *testing.T) {
	c, _ := newPair(t, time.Second)
	got := make(chan transport.Addr, 1)
	c.SetSendHook(func(to transport.Addr, payload any) { got <- to })
	if err := c.Send(1, replica.PingReq{ReqID: 99}); err != nil {
		t.Fatal(err)
	}
	select {
	case to := <-got:
		if to != 1 {
			t.Errorf("hook saw send to %d, want 1", to)
		}
	case <-time.After(time.Second):
		t.Fatal("send hook never fired")
	}
	c.SetSendHook(nil)
	if err := c.Send(1, replica.PingReq{ReqID: 100}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
		t.Fatal("hook fired after removal")
	default:
	}
}
