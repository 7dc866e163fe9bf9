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

// WriteResult is the outcome of a successful write quorum operation.
type WriteResult struct {
	// TS is the timestamp the value was installed with.
	TS replica.Timestamp
	// Level is the physical level (0-based index into the protocol's
	// physical levels) whose replicas form the write quorum.
	Level int
	// Contacts counts the replicas the operation accessed — the unit of
	// the paper's communication cost: version discovery plus every
	// replica a prepare was sent to (including aborted level attempts).
	// Second-phase commit/abort messages go to replicas already counted
	// by their prepare and are not counted again.
	Contacts int
}

// Write performs the protocol's write operation: it discovers the highest
// stored version through a version-read quorum (hedged by the quorum
// engine like a read), increments it, and runs two-phase commit on all
// physical nodes of one physical level. Levels are tried in the paper's
// uniform rotation, with levels containing a known-failing member
// deprioritized (their 2PC would stall on a timeout); per-operation
// options can pin the first level (WriteToLevel) or disable discovery
// hedging (WriteWithoutHedge). It is the one-key case of a transaction's
// commit, reporting a level-less failure as ErrWriteUnavailable.
func (c *Client) Write(ctx context.Context, key string, value []byte, opts ...WriteOption) (WriteResult, error) {
	proto := c.Protocol()
	cfg := writeConfig{read: c.readDefaults(), level: -1}
	for _, o := range opts {
		o.applyWrite(&cfg)
	}
	if n := proto.NumPhysicalLevels(); cfg.level >= n {
		return WriteResult{}, fmt.Errorf("client: level %d outside [0,%d)", cfg.level, n)
	}
	return c.commit(ctx, "write", key, proto, cfg.level, cfg.read, []keyWrite{{key: key, value: value}}, nil)
}

// WriteAt performs a write preferring the given physical level's quorum
// (0-based index into the protocol's physical levels), falling back to the
// other levels only if that level cannot be fully prepared. Pinning hot
// keys' writes to a specific level (e.g. the client's local zone in a
// geo-replicated layout) trades the uniform strategy's balanced load for
// locality. It is shorthand for Write with WriteToLevel(level).
func (c *Client) WriteAt(ctx context.Context, key string, value []byte, level int) (WriteResult, error) {
	if level < 0 {
		return WriteResult{}, fmt.Errorf("client: level %d outside [0,%d)", level, c.Protocol().NumPhysicalLevels())
	}
	return c.Write(ctx, key, value, WriteToLevel(level))
}

// keyWrite is one key a two-phase commit installs.
type keyWrite struct {
	key   string
	value []byte
	ts    replica.Timestamp
}

// commit is the write path of Write (kind "write") and Txn.Commit (kind
// "txn"). Levels are tried in the engine's order (orderLevels), or, when
// first >= 0, in rotation from level first. Phase 0 (§3.2.2) obtains the
// highest version of every key not in bases; this needs a read-shaped
// quorum, so a write inherits the read operation's availability
// requirement for its version-discovery step. Then all writes go through
// one two-phase commit on one physical level, trying levels in order. A
// commit decision that not every member acknowledged is reported as
// ErrInDoubt and counts as a write — retrying elsewhere would double-write.
// When no level can be prepared, a Write fails with ErrWriteUnavailable
// and a transaction with ErrTxnConflict.
func (c *Client) commit(ctx context.Context, kind, traceKey string, proto *core.Protocol, first int, rcfg readConfig, writes []keyWrite, bases map[string]ReadResult) (res WriteResult, err error) {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	col := c.newCollector(ctx)
	defer col.release()
	order := col.levelOrder(proto, first)
	c.budget.earnOp()
	op := c.traces.Start(kind, traceKey, c.id)
	var start time.Time
	if c.instr != nil {
		start = time.Now()
	}
	outcome := obs.OutcomeOK
	defer func() {
		if c.instr != nil {
			if kind == "txn" {
				c.instr.txnDur.Observe(time.Since(start))
			} else {
				c.instr.writeDur.Observe(time.Since(start))
			}
			c.instr.ops.With(kind, outcome).Inc()
		}
		op.Finish(outcome, err, res.Contacts)
	}()

	for i := range writes {
		w := &writes[i]
		base, ok := bases[w.key]
		if !ok {
			base, err = col.readQuorum(w.key, true, op, rcfg)
			res.Contacts += base.Contacts
			if err != nil {
				c.metrics.writeFailures.Add(1)
				c.metrics.writeContacts.Add(uint64(base.Contacts))
				outcome = obs.OutcomeUnavailable
				return res, fmt.Errorf("%w: version discovery for %q: %w", ErrWriteUnavailable, w.key, err)
			}
		}
		w.ts = replica.Timestamp{Version: base.TS.Version + 1, Site: c.id}
	}

	var lastErr error
	for i, u := range order {
		if i > 0 {
			// A next-level fallback is optional retry traffic: it spends a
			// retry-budget token, and when the bucket is dry the write stops
			// here with its honest outcome instead of amplifying load.
			if !c.budget.spend() {
				if c.instr != nil {
					c.instr.budgetDenied.Inc()
				}
				lastErr = fmt.Errorf("retry budget exhausted: %w", lastErr)
				break
			}
			if c.instr != nil {
				c.instr.levelFallbacks.Inc()
			}
			// Back off before attacking the next level: the failed attempt
			// usually means timeouts or contention, and an immediate retry
			// storm only feeds it. An overloaded member's retry-after hint
			// floors the sleep.
			floor, _ := rpc.RetryAfter(lastErr)
			if c.backoff(ctx, i-1, "level", floor) != nil {
				break
			}
		}
		contacts, err := col.twoPhase(proto, u, writes, op)
		res.Contacts += contacts
		c.metrics.writeContacts.Add(uint64(contacts))
		if err == nil || errors.Is(err, ErrInDoubt) {
			res.TS, res.Level = writes[0].ts, u
			c.metrics.writes.Add(1)
			if err != nil {
				outcome = obs.OutcomeInDoubt
			}
			return res, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	c.metrics.writeFailures.Add(1)
	if kind == "txn" {
		outcome = obs.OutcomeConflict
		return res, fmt.Errorf("%w: %w", ErrTxnConflict, lastErr)
	}
	outcome = obs.OutcomeUnavailable
	return res, fmt.Errorf("%w: %w", ErrWriteUnavailable, lastErr)
}

// levelOrder returns the levels a write tries, in the collector's buffer:
// in the engine's order, or in rotation from level first when first >= 0.
func (col *collector) levelOrder(proto *core.Protocol, first int) []int {
	n := proto.NumPhysicalLevels()
	if cap(col.order) < n {
		col.order = make([]int, n)
	}
	order := col.order[:n]
	if first < 0 {
		col.c.orderLevels(proto, order, &col.scratch)
		return order
	}
	for i := range order {
		order[i] = (first + i) % n
	}
	return order
}

// twoPhase runs two-phase commit of every write over every physical node of
// level u, recording the attempt (prepare, commit and abort contacts) on
// op. It returns the prepare contacts and nil, an ErrInDoubt error (the
// decision was commit but not every member acknowledged it), or why the
// level could not be prepared. Second-phase messages go to members their
// prepare already counted, so they are not counted again.
func (col *collector) twoPhase(proto *core.Protocol, u int, writes []keyWrite, op *obs.Op) (contacts int, err error) {
	c := col.c
	level := proto.LevelSites(u)
	sites := make([]transport.Addr, len(level))
	for i, s := range level {
		sites[i] = transport.Addr(s)
	}
	txID := c.txID.Add(1)
	span := op.Level(u, "write-2pc")
	// Target i of a round is key i/len(sites) on site i%len(sites).
	n := len(writes) * len(sites)
	site := func(i int) transport.Addr { return sites[i%len(sites)] }
	write := func(i int) *keyWrite { return &writes[i/len(sites)] }

	// Phase 1: prepare every key on every member of the level at once. The
	// reported failure prefers a breaker fast-fail, so a level that failed
	// without actually probing some member is recognized.
	prepare := func(force bool) error {
		var first error
		err := col.round(n, func(i int) (transport.Addr, rpc.Request) {
			w := write(i)
			return site(i), replica.PrepareReq{TxID: txID, Key: w.key, TS: w.ts}
		}, span, "prepare", force, func(i int, resp any, err error, contact bool) {
			if contact {
				contacts++
			}
			switch pr, ok := resp.(replica.PrepareResp); {
			case err != nil:
			case !ok:
				err = fmt.Errorf("unexpected response %T", resp)
			case !pr.OK:
				err = fmt.Errorf("prepare refused: %s", pr.Reason)
			}
			if err != nil && (first == nil || errors.Is(err, rpc.ErrBreakerOpen) && !errors.Is(first, rpc.ErrBreakerOpen)) {
				first = fmt.Errorf("site %d key %q: %w", site(i), write(i).key, err)
			}
		})
		if err != nil {
			return err
		}
		return first
	}
	err = prepare(false)
	if errors.Is(err, rpc.ErrBreakerOpen) && col.ctx.Err() == nil {
		// Rescue pass: a member's open breaker fast-failed its prepare. The
		// breaker must not cost availability the protocol would have had —
		// force the prepares through once before declaring the level dead.
		err = prepare(true)
	}
	if err != nil {
		// Release whatever was locked and report the level as unusable.
		_ = col.round(n, func(i int) (transport.Addr, rpc.Request) {
			return site(i), replica.AbortReq{TxID: txID, Key: write(i).key}
		}, span, "abort", false, func(int, any, error, bool) {})
		err = fmt.Errorf("level %d: %w", u, err)
		span.Done(false, err)
		return contacts, err
	}

	// Phase 2: every member prepared — the transaction is committed. Push
	// commits until everyone acknowledges, backing off between rounds.
	// Commits always carry ForceProbe: every prepared member must hear the
	// decision, open breaker or not. When the retries, the retry budget or
	// the operation's context run out first, the outcome is in doubt: the
	// decision is durable on every member that did acknowledge, and lock
	// expiry plus anti-entropy finish the stragglers.
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for attempt := 0; len(pending) > 0 && attempt <= c.commitRetries; attempt++ {
		if attempt > 0 {
			// A commit re-send spends a retry-budget token.
			if !c.budget.spend() {
				if c.instr != nil {
					c.instr.budgetDenied.Inc()
				}
				break
			}
			if c.backoff(col.ctx, attempt-1, "commit", 0) != nil {
				break
			}
		}
		var failed []int
		if col.round(len(pending), func(i int) (transport.Addr, rpc.Request) {
			w := write(pending[i])
			return site(pending[i]), replica.CommitReq{TxID: txID, Key: w.key, Value: w.value, TS: w.ts}
		}, span, "commit", true, func(i int, _ any, err error, _ bool) {
			if err != nil {
				failed = append(failed, pending[i])
			}
		}) != nil {
			break
		}
		pending = failed
	}
	if len(pending) > 0 {
		err = fmt.Errorf("level %d: %w", u, ErrInDoubt)
		span.Done(false, err)
		return contacts, err
	}
	span.Done(true, nil)
	return contacts, nil
}

// Ping probes one replica site, returning nil if it answers in time.
func (c *Client) Ping(ctx context.Context, site transport.Addr) error {
	ctx, cancel := c.opCtx(ctx)
	defer cancel()
	op := c.traces.Start("ping", "", c.id)
	var start time.Time
	if c.instr != nil {
		start = time.Now()
	}
	contacts := 0
	var err error
	col := c.newCollector(ctx)
	defer col.release()
	if rerr := col.round(1, func(int) (transport.Addr, rpc.Request) {
		return site, replica.PingReq{}
	}, nil, "ping", false, func(_ int, resp any, callErr error, contact bool) {
		if contact {
			contacts++
		}
		if _, ok := resp.(replica.PingResp); callErr == nil && !ok {
			callErr = fmt.Errorf("client: unexpected ping response %T", resp)
		}
		err = callErr
	}); rerr != nil {
		err = rerr
	}
	if c.instr != nil {
		c.instr.pingDur.Observe(time.Since(start))
		if err == nil {
			c.instr.pingOK.Inc()
		} else {
			c.instr.ops.With("ping", obs.OutcomeError).Inc()
		}
	}
	if err == nil {
		op.Finish(obs.OutcomeOK, nil, contacts)
	} else {
		op.Finish(obs.OutcomeError, err, contacts)
	}
	return err
}
