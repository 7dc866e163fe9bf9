package rpc

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/obs"
	"arbor/internal/transport"
)

// ErrBreakerOpen is wrapped into the error returned when a call is refused
// locally because the destination site's circuit breaker is open. Unlike
// ErrTimeout it costs nothing: no message is sent and no deadline burned,
// so callers can fall through to another site immediately.
var ErrBreakerOpen = errors.New("rpc: circuit breaker open")

// BreakerState is the observable state of one site's circuit breaker.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: calls flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls fast-fail with ErrBreakerOpen until the cooldown
	// expires (ForceProbe bypasses).
	BreakerOpen
	// BreakerHalfOpen: the cooldown expired; the next call through is
	// admitted as a single probe whose outcome closes or re-opens the
	// breaker.
	BreakerHalfOpen
)

// String renders the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the per-site circuit breakers.
type BreakerConfig struct {
	// Threshold is the run of consecutive failures that opens the circuit
	// (default 4).
	Threshold int
	// Cooldown is the initial open interval before a probe is admitted
	// (default 1s); each failed probe doubles it up to MaxCooldown
	// (default 16×Cooldown). Actual intervals are jittered in [½d, 1½d).
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// Seed drives the jitter.
	Seed int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.MaxCooldown <= 0 {
		c.MaxCooldown = 16 * c.Cooldown
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// breakerSet holds one breaker per destination site a caller has talked to.
type breakerSet struct {
	cfg BreakerConfig

	mu  sync.Mutex
	rng *rand.Rand
	m   map[transport.Addr]*breaker
	// opened counts the breakers whose open flag is set (changed under
	// mu), so a snapshot while every breaker is closed takes no lock.
	opened atomic.Int32

	// Optional instruments, wired by NewCaller when metrics are on.
	transitions *obs.CounterVec // destination state: open | half_open | closed
	fastFails   *obs.Counter
}

// breaker is one site's state machine. Half-open is derived, not stored: an
// open breaker whose cooldown has expired admits a single probe.
type breaker struct {
	open     bool
	fails    int           // consecutive failures while closed
	cooldown time.Duration // current (pre-jitter) open interval
	until    time.Time     // when the open interval ends
	probing  bool          // a half-open probe is in flight
}

func newBreakerSet(cfg BreakerConfig) *breakerSet {
	cfg = cfg.withDefaults()
	return &breakerSet{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		m:   make(map[transport.Addr]*breaker),
	}
}

func (s *breakerSet) get(to transport.Addr) *breaker {
	b, ok := s.m[to]
	if !ok {
		b = &breaker{}
		s.m[to] = b
	}
	return b
}

// admit decides whether a call to the site may proceed; probe marks the
// call as the half-open probe (its outcome resolves the breaker).
func (s *breakerSet) admit(to transport.Addr) (ok, probe bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(to)
	if !b.open {
		return true, false
	}
	if time.Now().Before(b.until) || b.probing {
		if s.fastFails != nil {
			s.fastFails.Inc()
		}
		return false, false
	}
	b.probing = true
	s.record("half_open")
	return true, true
}

// success closes the breaker (if open) and clears the failure run.
func (s *breakerSet) success(to transport.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(to)
	b.probing = false
	b.fails = 0
	if b.open {
		b.open = false
		s.opened.Add(-1)
		b.cooldown = 0
		s.record("closed")
	}
}

// failure counts a failed call: while closed it advances the consecutive-
// failure run toward Threshold; while open (a failed probe or forced call)
// it doubles the cooldown, capped at MaxCooldown.
func (s *breakerSet) failure(to transport.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(to)
	b.probing = false
	if b.open {
		if b.cooldown *= 2; b.cooldown > s.cfg.MaxCooldown {
			b.cooldown = s.cfg.MaxCooldown
		}
		b.until = time.Now().Add(s.jitter(b.cooldown))
		s.record("open")
		return
	}
	if b.fails++; b.fails >= s.cfg.Threshold {
		b.open = true
		s.opened.Add(1)
		b.cooldown = s.cfg.Cooldown
		b.until = time.Now().Add(s.jitter(b.cooldown))
		s.record("open")
	}
}

// release abandons an in-flight probe without a verdict (the caller's
// context was cancelled, so the site was never really tested).
func (s *breakerSet) release(to transport.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.get(to).probing = false
}

// state reports the site's observable breaker state.
func (s *breakerSet) state(to transport.Addr) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[to].state(time.Now())
}

// open sets open[i] to whether sites[i]'s breaker is open at one instant.
func (s *breakerSet) open(sites []transport.Addr, open []bool) {
	if s.opened.Load() == 0 {
		clear(open)
		return
	}
	s.mu.Lock()
	now := time.Now()
	for i, to := range sites {
		open[i] = s.m[to].state(now) == BreakerOpen
	}
	s.mu.Unlock()
}

// states snapshots every tracked site's state.
func (s *breakerSet) states() map[transport.Addr]BreakerState {
	s.mu.Lock()
	now := time.Now()
	out := make(map[transport.Addr]BreakerState, len(s.m))
	for to, b := range s.m {
		out[to] = b.state(now)
	}
	s.mu.Unlock()
	return out
}

// state derives the breaker's observable state at now; a nil breaker (a
// site never called) is closed.
func (b *breaker) state(now time.Time) BreakerState {
	switch {
	case b == nil || !b.open:
		return BreakerClosed
	case now.Before(b.until) || b.probing:
		return BreakerOpen
	default:
		return BreakerHalfOpen
	}
}

// jitter spreads d uniformly over [½d, 1½d) so synchronized failures don't
// re-probe in lockstep.
func (s *breakerSet) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(s.rng.Int63n(int64(d)))
}

func (s *breakerSet) record(state string) {
	if s.transitions != nil {
		s.transitions.With(state).Inc()
	}
}
