package client

import (
	"context"
	"errors"
	"fmt"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
)

// ReadResult is the outcome of a successful read quorum operation.
type ReadResult struct {
	// Value is the winning replica's value and must be treated as
	// read-only: callers whose reads coalesced into one quorum assembly
	// share a single buffer (the handoff is zero-copy). The replica store
	// never aliases it, so mutating it — besides corrupting co-readers —
	// still cannot corrupt stored state.
	Value []byte
	TS    replica.Timestamp
	Found bool
	// Contacts is the number of replica requests the operation sent (zero
	// for a read coalesced onto another caller's quorum assembly).
	Contacts int
}

// Read performs the protocol's read operation on key: it contacts one
// responsive physical node of every physical level (candidates ordered by
// the quorum engine's learned site scores, with hedged backup probes when
// the outstanding probe is overdue) and returns the value with the most
// recent timestamp. Concurrent option-free reads of the same key through
// one client coalesce into a single quorum assembly. It fails with
// ErrReadUnavailable when some level has no responsive replica, and
// ErrNotFound when the quorum assembled but nobody stores the key.
func (c *Client) Read(ctx context.Context, key string, opts ...ReadOption) (ReadResult, error) {
	if len(opts) == 0 {
		return c.readShared(ctx, key)
	}
	cfg := c.readDefaults()
	for _, o := range opts {
		o.applyRead(&cfg)
	}
	return c.readDirect(ctx, key, cfg)
}

// readDirect runs one full read operation (trace, metrics, quorum) under
// the given configuration, bypassing coalescing.
func (c *Client) readDirect(ctx context.Context, key string, cfg readConfig) (ReadResult, error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	c.budget.earnOp()
	op := c.traces.Start("read", key, c.id)
	var start time.Time
	if c.instr != nil {
		start = time.Now()
	}
	col := c.newCollector(ctx)
	defer col.release()
	res, err := col.readQuorum(key, false, op, cfg)
	if err != nil {
		c.metrics.readFailures.Add(1)
		if c.instr != nil {
			c.instr.readDur.Observe(time.Since(start))
			if errors.Is(err, ErrReadUnavailable) {
				c.instr.readUnavailable.Inc()
			} else {
				c.instr.ops.With("read", obs.OutcomeError).Inc()
			}
		}
		op.Finish(readOutcome(err), err, res.Contacts)
		return res, err
	}
	c.metrics.reads.Add(1)
	if c.instr != nil {
		c.instr.readDur.Observe(time.Since(start))
	}
	if !res.Found {
		if c.instr != nil {
			c.instr.readNotFound.Inc()
		}
		op.Finish(obs.OutcomeNotFound, nil, res.Contacts)
		return res, ErrNotFound
	}
	if c.instr != nil {
		c.instr.readOK.Inc()
	}
	op.Finish(obs.OutcomeOK, nil, res.Contacts)
	return res, nil
}

// readOutcome maps a read error to a trace outcome label.
func readOutcome(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeOK
	case errors.Is(err, ErrReadUnavailable):
		return obs.OutcomeUnavailable
	default:
		return obs.OutcomeError
	}
}

// ReadVersion performs the version-discovery half of a write: like Read,
// but asking only for timestamps. A fully assembled quorum over replicas
// that never stored the key yields Found=false with a zero timestamp.
func (c *Client) ReadVersion(ctx context.Context, key string) (ReadResult, error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	col := c.newCollector(ctx)
	defer col.release()
	return col.readQuorum(key, true, nil, c.readDefaults())
}

// levelRead is one physical level's part of a read or version quorum.
type levelRead struct {
	ts        replica.Timestamp
	value     []byte
	found     bool
	won       bool
	err       error
	responder transport.Addr
	contacts  int

	// sites are the level's candidates in engine order and next indexes
	// the first not yet probed. skipped lists sites whose circuit breaker
	// fast-failed the probe: a failed level force-probes them before giving
	// up (the rescue pass, which then becomes sites).
	sites    []transport.Addr
	next     int
	skipped  []transport.Addr
	rescue   bool
	inflight int

	// hedgeAfter > 0 arms hedged backup probes: while the level is
	// unanswered, from hedgeAt on, every hedgeAfter the next candidate is
	// probed alongside the outstanding ones.
	hedgeAfter     time.Duration
	hedgeAt        time.Time
	start          time.Time
	primaryReplied bool
	span           *obs.LevelSpan
}

// readLevels returns one cleared levelRead per physical level, in the
// collector's buffer, each with its sites slice sized to the level and
// backed by the collector's site buffer.
func (col *collector) readLevels(proto *core.Protocol) []levelRead {
	n, total := proto.NumPhysicalLevels(), 0
	for u := 0; u < n; u++ {
		total += len(proto.LevelSites(u))
	}
	if cap(col.levels) < n {
		col.levels = make([]levelRead, n)
	}
	if cap(col.sites) < total {
		col.sites = make([]transport.Addr, total)
	}
	levels := col.levels[:n]
	clear(levels)
	off := 0
	for u := range levels {
		end := off + len(proto.LevelSites(u))
		levels[u].sites = col.sites[off:end:end]
		off = end
	}
	return levels
}

// hedging reports whether the level may still launch a hedge.
func (lv *levelRead) hedging() bool {
	return lv.hedgeAfter > 0 && !lv.won && lv.inflight > 0 && lv.next < len(lv.sites)
}

// decodeProbe extracts a read/version probe response. A catching-up
// refusal maps to ErrCatchingUp and marks the site as refusing in the
// scoreboard (ordering it last until it serves again); a real serve clears
// the mark.
func (c *Client) decodeProbe(addr transport.Addr, resp any) (ts replica.Timestamp, value []byte, found bool, err error) {
	switch m := resp.(type) {
	case replica.ReadResp:
		if m.Refused {
			c.scores.markRefusing(addr)
			return ts, nil, false, fmt.Errorf("site %d: %w", addr, ErrCatchingUp)
		}
		return m.TS, m.Value, m.Found, nil
	case replica.VersionResp:
		if m.Refused {
			c.scores.markRefusing(addr)
			return ts, nil, false, fmt.Errorf("site %d: %w", addr, ErrCatchingUp)
		}
		return m.TS, nil, m.Found, nil
	default:
		return ts, nil, false, fmt.Errorf("unexpected response %T", resp)
	}
}

// readQuorum gathers one response per physical level. Every level's
// candidate order is drawn before the first send, in level order, so a
// seeded client contacts the same sites however replies interleave. Each
// level probes its candidates one at a time in the engine's learned order,
// falling back to the next on a failure and, when the level is warm and
// hedging is on, also when the outstanding probe is overdue by the hedge
// delay; the first usable response wins and the losers are cancelled. All
// levels run at once on the collector's one loop, and the read waits for
// every level. When op is live, every level probe is recorded as a
// LevelAttempt on it.
func (col *collector) readQuorum(key string, versionOnly bool, op *obs.Op, cfg readConfig) (ReadResult, error) {
	c := col.c
	proto := c.Protocol()
	levels := col.readLevels(proto)
	width := 0
	for u := range levels {
		lv := &levels[u]
		best, known := c.orderSites(proto, u, lv.sites, &col.scratch)
		width += len(lv.sites)
		if cfg.hedge {
			lv.hedgeAfter, _ = c.levelHedgeDelay(best, known, cfg)
		}
	}
	phase, hedgePhase, spanPhase := "read", "read-hedge", "read-quorum"
	var req rpc.Request = replica.ReadReq{Key: key}
	if versionOnly {
		phase, hedgePhase, spanPhase = "version", "version-hedge", "version-discovery"
		req = replica.VersionReq{Key: key, ForWrite: true}
	}
	probe := func(u int, hedge bool) {
		lv := &levels[u]
		p := phase
		if hedge {
			p = hedgePhase
		}
		col.send(u, lv.sites[lv.next], req, lv.span, p, hedge, lv.rescue)
		lv.next++
		lv.inflight++
	}
	// finish closes a level with nothing left in flight. If it failed while
	// some sites were only breaker-skipped (never actually probed), a rescue
	// pass force-probes them first: the breaker is advice for ordering and
	// fast-skipping, never grounds for declaring a level unavailable.
	finish := func(u int) {
		lv := &levels[u]
		if !lv.won && !lv.rescue && len(lv.skipped) > 0 && col.ctx.Err() == nil {
			lv.span.Done(false, lv.err)
			lv.span = op.Level(u, spanPhase)
			lv.sites, lv.next, lv.skipped, lv.rescue, lv.hedgeAfter = lv.skipped, 0, nil, true, 0
			probe(u, false)
			return
		}
		lv.span.Done(lv.won, lv.err)
	}
	onReply := func(s sent, resp any, err error, contact bool) {
		u, to := s.group, s.call.To
		lv := &levels[u]
		lv.inflight--
		if contact {
			lv.contacts++
		}
		if to == lv.sites[0] {
			lv.primaryReplied = true
		}
		if !lv.won {
			if err == nil {
				lv.ts, lv.value, lv.found, err = c.decodeProbe(to, resp)
			}
			if err == nil {
				lv.won, lv.err, lv.responder = true, nil, to
				if s.hedge {
					if c.instr != nil {
						c.instr.hedgeWins.Inc()
					}
					// The win itself says the primary sat overdue past the
					// hedge delay without answering: score that as a
					// failure so later reads deprioritize it. (Cancelled
					// calls are otherwise never scored — losing a fair race
					// says nothing — but overdue-ness does.)
					if !lv.primaryReplied {
						c.scores.record(lv.sites[0], time.Since(lv.start), true)
					}
				}
				col.cancel(u, context.Canceled) // the losers' outcomes still drain through here
			} else {
				lv.err = err
				if errors.Is(err, rpc.ErrBreakerOpen) {
					lv.skipped = append(lv.skipped, to)
				}
				if lv.next < len(lv.sites) && col.ctx.Err() == nil {
					if contact && c.instr != nil {
						c.instr.siteFallbacks.Inc()
					}
					probe(u, false)
				}
			}
		}
		if lv.inflight == 0 {
			finish(u)
		}
	}
	nextHedge := func() (at time.Time, ok bool) {
		for u := range levels {
			if lv := &levels[u]; lv.hedging() && (!ok || lv.hedgeAt.Before(at)) {
				at, ok = lv.hedgeAt, true
			}
		}
		return at, ok
	}
	hedge := func() {
		now := time.Now()
		for u := range levels {
			lv := &levels[u]
			if !lv.hedging() || now.Before(lv.hedgeAt) {
				continue
			}
			lv.hedgeAt = now.Add(lv.hedgeAfter)
			if col.ctx.Err() != nil {
				continue
			}
			// A hedge is optional retry traffic: it spends a retry-budget
			// token. Denied, the overdue primary still resolves at the
			// client timeout and the plain failure fallback takes over —
			// the budget trades tail latency for load, never availability.
			if c.budget.spend() {
				probe(u, true)
				if c.instr != nil {
					c.instr.hedges.Inc()
				}
			} else if c.instr != nil {
				c.instr.budgetDenied.Inc()
			}
		}
	}

	col.begin(width)
	start := time.Now()
	for u := range levels {
		lv := &levels[u]
		lv.span = op.Level(u, spanPhase)
		lv.start = start
		lv.hedgeAt = lv.start.Add(lv.hedgeAfter)
		if len(lv.sites) == 0 {
			lv.err = fmt.Errorf("level %d has no replicas", u)
			lv.span.Done(false, lv.err)
			continue
		}
		probe(u, false)
	}
	col.run(onReply, nextHedge, hedge)

	var res ReadResult
	for u := range levels {
		lv := &levels[u]
		res.Contacts += lv.contacts
		if !lv.won {
			c.metrics.readContacts.Add(uint64(res.Contacts))
			return res, fmt.Errorf("%w: level %d: %w", ErrReadUnavailable, u, lv.err)
		}
		if lv.found && (!res.Found || lv.ts.After(res.TS)) {
			res.TS = lv.ts
			res.Value = lv.value
			res.Found = true
		}
	}
	c.metrics.readContacts.Add(uint64(res.Contacts))
	if c.readRepair && !versionOnly && res.Found {
		c.repair(key, res, levels)
	}
	return res, nil
}

// repair pushes the winning value to contacted replicas that answered with
// stale or missing data. Repairs are fire-and-forget timestamped commits
// (request ID 0 is never registered, so any acknowledgement is dropped by
// the dispatcher) and cannot regress replica state.
func (c *Client) repair(key string, res ReadResult, levels []levelRead) {
	for _, lv := range levels {
		if lv.found && !res.TS.After(lv.ts) {
			continue
		}
		_ = c.caller.Send(lv.responder, replica.CommitReq{
			TxID:  0,
			Key:   key,
			Value: res.Value,
			TS:    res.TS,
		})
	}
}
