// Package rpc provides the request/response plumbing protocol clients use
// over the message transport: request-ID allocation, a reply dispatcher,
// and asynchronous calls whose reply deadlines the owner enforces. Both
// the arbitrary-protocol client and the tree-quorum comparator client are
// built on it.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
	"arbor/internal/wire"
)

// Request is a payload carrying a caller-allocated request ID; every
// protocol request type implements it. Call stamps the ID right before
// sending.
type Request = wire.Request

// ErrClosed is the outcome of calls made after, or in flight at, Close.
var ErrClosed = errors.New("rpc: caller closed")

// ErrTimeout is wrapped into the error returned when a call's reply
// deadline expires, so callers can distinguish timeouts (the failure
// detector firing) from other failures with errors.Is.
var ErrTimeout = errors.New("rpc: timed out")

// Option configures a Caller.
type Option func(*Caller)

// WithMetrics instruments the caller against the registry: a call-latency
// histogram and counters for calls issued and timeouts. A nil registry
// leaves the caller uninstrumented.
func WithMetrics(reg *obs.Registry) Option {
	return func(c *Caller) {
		if reg == nil {
			return
		}
		c.callDur = reg.Histogram("arbor_rpc_call_duration_seconds",
			"Round-trip latency of replica calls, including timed-out calls.")
		c.calls = reg.Counter("arbor_rpc_calls_total",
			"Replica calls issued (each is one request message awaiting a reply).")
		c.timeouts = reg.Counter("arbor_rpc_timeouts_total",
			"Replica calls whose reply deadline expired (failure-detector hits).")
		c.sends = reg.Counter("arbor_rpc_sends_total",
			"Fire-and-forget payloads sent without awaiting a reply (read repair, gossip).")
		c.breakerTransitions = reg.CounterVec("arbor_rpc_breaker_transitions_total",
			"Circuit-breaker state transitions, by destination state (open counts re-opens after failed probes).",
			"state")
		c.breakerFastFails = reg.Counter("arbor_rpc_breaker_fastfails_total",
			"Calls refused locally because the destination site's circuit breaker was open.")
		c.overloads = reg.Counter("arbor_rpc_overloaded_total",
			"Calls answered by a replica's admission gate with a load-shed reply.")
		c.deadlineSkips = reg.Counter("arbor_rpc_deadline_skips_total",
			"Calls failed locally because the caller's deadline budget was already spent.")
	}
}

// WithBreaker arms a per-site circuit breaker: after BreakerConfig.Threshold
// consecutive failures to a site, further calls to it fast-fail with
// ErrBreakerOpen (no message, no timeout) until a cooldown expires and a
// single half-open probe decides whether to close again. ForceProbe on an
// individual Call bypasses the fast-fail.
func WithBreaker(cfg BreakerConfig) Option {
	return func(c *Caller) {
		c.breakers = newBreakerSet(cfg)
	}
}

// CallOption adjusts a single Call.
type CallOption func(*callConfig)

type callConfig struct {
	force bool
}

// ForceProbe lets the call through an open circuit breaker. Use it when the
// call must be attempted regardless of the site's recent history: phase-two
// commits (every prepared site has to hear the decision) and last-resort
// availability rescues. The outcome still feeds the breaker.
func ForceProbe() CallOption {
	return func(cc *callConfig) { cc.force = true }
}

// Caller matches replica replies to outstanding requests by request ID.
// It is safe for concurrent use.
type Caller struct {
	ep      transport.Conn
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool

	reqID atomic.Uint64

	// breakers is the optional per-site circuit-breaker set (nil when
	// WithBreaker was not given: every call is admitted).
	breakers *breakerSet

	// sendHook, when set, observes every fire-and-forget Send (test
	// synchronization for repair traffic).
	sendHook func(to transport.Addr, payload any)

	// Optional instruments (nil when observability is off; recording on
	// nil obs instruments is a no-op, but the guards skip timestamping).
	callDur            *obs.Histogram
	calls              *obs.Counter
	timeouts           *obs.Counter
	sends              *obs.Counter
	breakerTransitions *obs.CounterVec
	breakerFastFails   *obs.Counter
	overloads          *obs.Counter
	deadlineSkips      *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// NewCaller attaches a caller to the endpoint and starts its dispatcher.
func NewCaller(ep transport.Conn, timeout time.Duration, opts ...Option) *Caller {
	c := &Caller{
		ep:      ep,
		timeout: timeout,
		pending: make(map[uint64]*Call),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.breakers != nil {
		c.breakers.transitions = c.breakerTransitions
		c.breakers.fastFails = c.breakerFastFails
	}
	go c.dispatch()
	return c
}

// BreakerState reports the site's circuit-breaker state (BreakerClosed when
// breakers are disabled).
func (c *Caller) BreakerState(to transport.Addr) BreakerState {
	if c.breakers == nil {
		return BreakerClosed
	}
	return c.breakers.state(to)
}

// OpenBreakers sets open[i] to whether sites[i]'s breaker is open (state
// BreakerOpen), under one lock acquisition for the whole slice; len(open)
// must be len(sites). Every entry is false when breakers are disabled.
func (c *Caller) OpenBreakers(sites []transport.Addr, open []bool) {
	if c.breakers == nil {
		clear(open)
		return
	}
	c.breakers.open(sites, open)
}

// BreakerStates snapshots the breaker state of every site this caller has
// tracked; nil when breakers are disabled.
func (c *Caller) BreakerStates() map[transport.Addr]BreakerState {
	if c.breakers == nil {
		return nil
	}
	return c.breakers.states()
}

// Timeout returns the per-request reply deadline.
func (c *Caller) Timeout() time.Duration { return c.timeout }

// Close stops the dispatcher; calls in flight fail with ErrClosed.
func (c *Caller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	inflight := make([]*Call, 0, len(c.pending))
	for id, call := range c.pending {
		inflight = append(inflight, call)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	for _, call := range inflight {
		c.release(call)
		call.deliver(ErrClosed)
	}
	close(c.stop)
	<-c.done
}

// Call is one request in flight, started by Go. Exactly one outcome — the
// reply, a timeout, a breaker fast-fail, a send error, ErrClosed, or the
// error given to Cancel — is delivered for it, as the *Call itself on the
// channel passed to Go, with Resp or Err set.
type Call struct {
	To   transport.Addr
	Tag  int // the caller's tag, passed to Go and returned untouched
	Resp any
	Err  error
	// Deadline is when the call's reply is due: the earlier of the
	// caller's timeout and the context's deadline, measured from Go. Calls
	// started later never have an earlier deadline. Zero when Go settled
	// the call before sending.
	Deadline time.Time

	c     *Caller
	id    uint64
	probe bool // the call is its site's half-open breaker probe
	start time.Time
	done  chan<- *Call
}

// deliver hands the call's outcome to its owner.
func (call *Call) deliver(err error) {
	call.Err = err
	call.done <- call
}

// callChanPool recycles the one-slot outcome channels of synchronous calls.
// A channel goes back to the pool only after its call's single outcome was
// received, so it is always empty when reused.
var callChanPool = sync.Pool{New: func() any { return make(chan *Call, 1) }}

// Call sends one request and waits for its outcome, its reply deadline or
// context cancellation: the one-contact case of Go.
func (c *Caller) Call(ctx context.Context, to transport.Addr, req Request, opts ...CallOption) (any, error) {
	done := callChanPool.Get().(chan *Call)
	call := c.Go(ctx, to, req, 0, done, opts...)
	// A call Go settled before sending has a zero Deadline: its timer
	// fires at once and Expire leaves the outcome already on done alone.
	timer := time.NewTimer(time.Until(call.Deadline))
	select {
	case <-done:
	case <-timer.C:
		c.Expire(call)
		<-done
	case <-ctx.Done():
		c.Cancel(call, ctx.Err())
		<-done
	}
	timer.Stop()
	callChanPool.Put(done)
	return call.Resp, call.Err
}

// Go sends one request — req, stamped with a fresh request ID — and returns
// at once. Because the ID is stamped per call, one request value can be
// fanned out to many sites. The outcome arrives on done exactly once; done
// must have room for every call outstanding on it, so the dispatcher never
// blocks delivering a reply. Go arms no timer: the returned call carries
// its reply deadline, and the owner calls Expire once that passes — one
// timer of the owner's can watch any number of calls. With a circuit
// breaker armed, a call to a site whose breaker is open fast-fails with
// ErrBreakerOpen (unless ForceProbe is given), and every real outcome
// feeds the breaker. Go does not watch ctx for cancellation — that is the
// caller's to do, through Cancel — but takes the attempt's budget from its
// deadline.
func (c *Caller) Go(ctx context.Context, to transport.Addr, req Request, tag int, done chan<- *Call, opts ...CallOption) *Call {
	call := &Call{To: to, Tag: tag, c: c, done: done}
	var cc callConfig
	for _, opt := range opts {
		opt(&cc)
	}
	// The attempt's reply deadline is the smaller of the per-request
	// timeout and the caller's remaining context budget, so a retry or
	// rescue pass late in an operation never overshoots the operation's
	// deadline. A spent budget fails locally before any message is sent.
	attempt := c.timeout
	var budget time.Duration
	if deadline, ok := ctx.Deadline(); ok {
		budget = time.Until(deadline)
		if budget <= 0 {
			c.deadlineSkips.Inc()
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("site %d: deadline spent: %w", to, ErrTimeout)
			}
			call.deliver(err)
			return call
		}
		attempt = min(attempt, budget)
	}
	if c.breakers != nil && !cc.force {
		ok, probe := c.breakers.admit(to)
		if !ok {
			call.deliver(fmt.Errorf("site %d: %w", to, ErrBreakerOpen))
			return call
		}
		call.probe = probe
	}
	call.id = c.reqID.Add(1)
	call.start = time.Now()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.release(call)
		call.deliver(ErrClosed)
		return call
	}
	call.Deadline = call.start.Add(attempt)
	c.pending[call.id] = call
	c.mu.Unlock()

	c.calls.Inc()
	payload := req.WithReqID(call.id)
	if budget > 0 {
		if dc, ok := payload.(wire.DeadlineCarrier); ok {
			// Round up so a sub-millisecond budget still rides as 1ms
			// rather than degenerating to "no deadline".
			millis := uint64((budget + time.Millisecond - 1) / time.Millisecond)
			payload = dc.WithDeadline(millis)
		}
	}
	if err := c.ep.Send(to, payload); err != nil && c.claim(call.id) != nil {
		if c.breakers != nil {
			c.breakers.failure(to)
		}
		call.deliver(fmt.Errorf("rpc: send to %d: %w", to, err))
	}
	return call
}

// Cancel abandons a call still in flight: a half-open probe is released
// without a verdict (the site was never really tested) and err is
// delivered as the call's outcome. Over the TCP transport this cancels only
// the one request, never the multiplexed connection under it. A call whose
// outcome is already decided is left alone; that outcome arrives as usual.
func (c *Caller) Cancel(call *Call, err error) {
	if c.claim(call.id) != nil {
		c.release(call)
		call.deliver(err)
	}
}

// claim takes call id out of the pending table, returning nil when the
// call is no longer in flight. Exactly one of the dispatcher, Expire,
// Cancel and Close wins the claim and delivers the outcome.
func (c *Caller) claim(id uint64) *Call {
	c.mu.Lock()
	call, ok := c.pending[id]
	if ok {
		delete(c.pending, id)
	}
	c.mu.Unlock()
	return call
}

// Expire times out a call still in flight: its owner calls it once the
// call's Deadline has passed. The timeout counts as a breaker failure and
// is delivered as an error wrapping ErrTimeout. A call whose outcome is
// already decided is left alone.
func (c *Caller) Expire(call *Call) {
	if c.claim(call.id) == nil {
		return
	}
	c.timeouts.Inc()
	if c.callDur != nil {
		c.callDur.Observe(time.Since(call.start))
	}
	if c.breakers != nil {
		c.breakers.failure(call.To)
	}
	call.deliver(fmt.Errorf("site %d: %w", call.To, ErrTimeout))
}

// release abandons the call's half-open breaker probe, if it is one.
func (c *Caller) release(call *Call) {
	if call.probe {
		c.breakers.release(call.To)
	}
}

// reply settles a call with the response the dispatcher matched to it.
func (c *Caller) reply(call *Call, resp any) {
	if c.callDur != nil {
		c.callDur.Observe(time.Since(call.start))
	}
	if c.breakers != nil {
		// An overload reply counts as breaker success: the site answered
		// instantly, it is alive — just refusing work.
		c.breakers.success(call.To)
	}
	if ov, shed := resp.(wire.OverloadedResp); shed {
		c.overloads.Inc()
		call.deliver(&overloadedError{site: call.To, retryAfter: time.Duration(ov.RetryAfterMillis) * time.Millisecond})
		return
	}
	call.Resp = resp
	call.deliver(nil)
}

// Send transmits a payload without awaiting a reply (fire-and-forget).
func (c *Caller) Send(to transport.Addr, payload any) error {
	c.sends.Inc()
	err := c.ep.Send(to, payload)
	c.mu.Lock()
	hook := c.sendHook
	c.mu.Unlock()
	if hook != nil {
		hook(to, payload)
	}
	return err
}

// SetSendHook installs fn to be invoked after every fire-and-forget Send
// (tests use it to wait for repair traffic instead of sleeping). Pass nil
// to remove it.
func (c *Caller) SetSendHook(fn func(to transport.Addr, payload any)) {
	c.mu.Lock()
	c.sendHook = fn
	c.mu.Unlock()
}

// dispatch matches replies to calls in flight by request ID; it is the
// caller's only goroutine.
func (c *Caller) dispatch() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case msg := <-c.ep.Recv():
			id, ok := ReqIDOf(msg.Payload)
			if !ok {
				continue
			}
			if call := c.claim(id); call != nil {
				c.reply(call, msg.Payload)
			}
		}
	}
}

// ReqIDOf extracts the request ID from any known response payload.
func ReqIDOf(payload any) (uint64, bool) {
	switch m := payload.(type) {
	case wire.ReadResp:
		return m.ReqID, true
	case wire.VersionResp:
		return m.ReqID, true
	case wire.PrepareResp:
		return m.ReqID, true
	case wire.CommitResp:
		return m.ReqID, true
	case wire.AbortResp:
		return m.ReqID, true
	case wire.PingResp:
		return m.ReqID, true
	case wire.OverloadedResp:
		return m.ReqID, true
	default:
		return 0, false
	}
}
