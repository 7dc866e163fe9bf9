// The quorum engine: latency-aware site selection, hedged probes and read
// coalescing shared by the read, version-discovery and write paths.
//
// Every replica call feeds a per-site EWMA of round-trip latency and
// failure rate. Within a level, candidates are probed in the paper's
// uniform random order stable-sorted by coarse health buckets, so healthy
// replicas keep the load-optimal uniform distribution while sites with
// learned failures or latencies far above the level's best sink to the
// back. When a probe is overdue relative to the level's learned latency, a
// hedged backup probe is launched to the next candidate instead of waiting
// out the full client timeout; the first response wins and the losers are
// cancelled. Concurrent reads of one key through one client coalesce into
// a single quorum assembly.
package client

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/rpc"
	"arbor/internal/transport"
)

// Engine tuning constants.
const (
	// scoreAlpha is the EWMA smoothing factor for site latency and
	// failure estimates (higher = faster adaptation).
	scoreAlpha = 0.25
	// exploreEvery makes one in N level probes promote a random candidate
	// to the front, so stale scores (a recovered or newly fast site) get
	// refreshed; with hedging on, the cost of a bad exploration is
	// bounded by the hedge delay, not the client timeout.
	exploreEvery = 16
	// latSlowFactor and latDeadFactor bound the "same speed class" bucket:
	// a site whose latency EWMA is within latSlowFactor of the level's
	// best keeps its uniform-shuffle position (preserving the paper's
	// optimal load); beyond that it is deprioritized, and beyond
	// latDeadFactor it is tried last.
	latSlowFactor = 4
	latDeadFactor = 16
)

// siteScore is one site's learned health: latency and failure EWMAs.
type siteScore struct {
	lat     float64 // round-trip EWMA, nanoseconds
	fail    float64 // failure-rate EWMA in [0,1]
	samples uint64
}

// scoreboard tracks per-site scores for one client. Safe for concurrent
// use.
type scoreboard struct {
	mu sync.Mutex
	m  map[transport.Addr]siteScore
	// refusing marks sites that answered a probe with a catching-up
	// refusal: alive but not serving reads. Cleared on the next successful
	// serve. Kept out of the latency/failure EWMAs — a refusal is neither
	// slow nor dead, and folding it in would poison the site's scores for
	// long after it rejoins.
	refusing map[transport.Addr]bool
}

func newScoreboard() *scoreboard {
	return &scoreboard{
		m:        make(map[transport.Addr]siteScore),
		refusing: make(map[transport.Addr]bool),
	}
}

// record folds one observed call into the site's EWMAs. Timeouts count as
// failures at their full observed latency; cancelled calls are never
// recorded (losing a hedge race says nothing about the site). A successful
// serve also clears the site's refusing mark.
func (s *scoreboard) record(addr transport.Addr, d time.Duration, failed bool) {
	f := 0.0
	if failed {
		f = 1.0
	}
	x := float64(d)
	s.mu.Lock()
	e := s.m[addr]
	if e.samples == 0 {
		e.lat, e.fail = x, f
	} else {
		e.lat = scoreAlpha*x + (1-scoreAlpha)*e.lat
		e.fail = scoreAlpha*f + (1-scoreAlpha)*e.fail
	}
	e.samples++
	s.m[addr] = e
	if !failed {
		delete(s.refusing, addr)
	}
	s.mu.Unlock()
}

// markRefusing records a catching-up refusal from the site.
func (s *scoreboard) markRefusing(addr transport.Addr) {
	s.mu.Lock()
	s.refusing[addr] = true
	s.mu.Unlock()
}

// isRefusing reports whether the site's last probe was refused.
func (s *scoreboard) isRefusing(addr transport.Addr) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refusing[addr]
}

// get returns the site's score and whether anything was ever recorded.
func (s *scoreboard) get(addr transport.Addr) (siteScore, bool) {
	s.mu.Lock()
	e, ok := s.m[addr]
	s.mu.Unlock()
	return e, ok && e.samples > 0
}

// siteHealth is one site's scoreboard state as seen by an ordering pass.
type siteHealth struct {
	lat      float64
	fail     float64
	known    bool
	refusing bool
}

// fill snapshots every site's health into out (len(out) == len(sites))
// under a single lock acquisition — the ordering passes run on every
// operation, so they must not take the scoreboard lock per site.
func (s *scoreboard) fill(sites []transport.Addr, out []siteHealth) {
	s.mu.Lock()
	for i, a := range sites {
		e, ok := s.m[a]
		out[i] = siteHealth{
			lat:      e.lat,
			fail:     e.fail,
			known:    ok && e.samples > 0,
			refusing: s.refusing[a],
		}
	}
	s.mu.Unlock()
}

// bestLatency returns the lowest latency EWMA among the given sites.
func (s *scoreboard) bestLatency(sites []transport.Addr) (time.Duration, bool) {
	best := math.MaxFloat64
	known := false
	s.mu.Lock()
	for _, a := range sites {
		if e, ok := s.m[a]; ok && e.samples > 0 && e.lat < best {
			best, known = e.lat, true
		}
	}
	s.mu.Unlock()
	if !known {
		return 0, false
	}
	return time.Duration(best), true
}

// failBucket coarsens a failure EWMA into three classes so that sampling
// noise cannot break the uniform strategy's load balance.
func failBucket(fail float64) int {
	switch {
	case fail < 0.25:
		return 0
	case fail < 0.5:
		return 1
	default:
		return 2
	}
}

// latBucket coarsens a latency EWMA relative to the level's best. A site
// only leaves the healthy bucket when its latency is material — at least
// the hedge delay, where probing it first would actually cost a hedge or a
// timeout. Below that, scheduling noise can make identical sites' EWMAs
// diverge by large factors, and deprioritizing on it would break the
// uniform strategy's load balance for no operational gain.
func latBucket(lat, best, material float64) int {
	switch {
	case lat < material || best <= 0 || lat <= latSlowFactor*best:
		return 0
	case lat <= latDeadFactor*best:
		return 1
	default:
		return 2
	}
}

// skipBucket sorts past every health bucket: sites whose circuit breaker
// is open or whose last probe was a catching-up refusal are known to be
// non-serving right now, so they go behind everything else (probing them
// is still cheap — a fast-fail or instant refusal, never a timeout).
const skipBucket = 99

// orderedSites returns level u's sites in probe order: the paper's uniform
// shuffle stable-sorted by coarse health buckets (failure class first,
// then latency class relative to the level's best). Healthy sites of the
// same speed class stay uniformly ordered — preserving the optimal read
// load of the uniform strategy — while known-slow or failing sites are
// tried last, and open-breaker or catching-up sites last of all. One in
// exploreEvery calls promotes a random candidate to the front so scores
// cannot go permanently stale.
func (c *Client) orderedSites(proto *core.Protocol, u int) []transport.Addr {
	out := c.shuffledSites(proto, u)
	if len(out) < 2 {
		return out
	}
	health := make([]siteHealth, len(out))
	c.scores.fill(out, health)
	var best float64 = math.MaxFloat64
	for i := range health {
		if health[i].known && health[i].lat < best {
			best = health[i].lat
		}
	}
	material := float64(c.hedgeDelay)
	buckets := make([]int8, len(out))
	for i, a := range out {
		h := health[i]
		switch {
		case h.refusing || c.caller.BreakerState(a) == rpc.BreakerOpen:
			buckets[i] = skipBucket
		case !h.known:
			buckets[i] = 0 // cold site: treat as healthy until probed
		default:
			buckets[i] = int8(failBucket(h.fail)*3 + latBucket(h.lat, best, material))
		}
	}
	stableSortByBucket(out, buckets)
	c.rngMu.Lock()
	explore := c.rng.Intn(exploreEvery) == 0
	idx := 0
	if explore {
		idx = c.rng.Intn(len(out))
	}
	c.rngMu.Unlock()
	if explore && idx > 0 {
		picked := out[idx]
		copy(out[1:idx+1], out[:idx])
		out[0] = picked
	}
	return out
}

// orderedLevels returns physical level indices in write-attempt order: the
// paper's uniform rotation stable-sorted by each level's worst member
// failure bucket, so a level whose 2PC would stall on a known-failing
// member is tried last. Healthy levels keep the uniform rotation,
// preserving the optimal write load. (A level is as available as its least
// available member — the write quorum needs all of them — so the bucket is
// the max over members. Latency is deliberately ignored: a uniformly far
// level is still a correct and load-bearing write quorum.)
func (c *Client) orderedLevels(proto *core.Protocol) []int {
	order := c.shuffledLevelOrder(proto)
	if len(order) < 2 {
		return order
	}
	buckets := make([]int8, len(order))
	for i, u := range order {
		worst := 0.0
		for _, s := range proto.LevelSites(u) {
			a := transport.Addr(s)
			if c.caller.BreakerState(a) == rpc.BreakerOpen {
				// An open breaker means the member just failed repeatedly;
				// a 2PC through this level would stall on it.
				worst = 1.0
				break
			}
			if e, ok := c.scores.get(a); ok && e.fail > worst {
				worst = e.fail
			}
		}
		buckets[i] = int8(failBucket(worst))
	}
	stableSortByBucket(order, buckets)
	return order
}

// stableSortByBucket stable-sorts items by ascending bucket, moving the two
// slices in tandem. Candidate lists are a handful of entries, so insertion
// sort beats sort.SliceStable here and, unlike it, allocates nothing — this
// runs on every read and write.
func stableSortByBucket[T any](items []T, buckets []int8) {
	for i := 1; i < len(items); i++ {
		it, b := items[i], buckets[i]
		j := i
		for j > 0 && buckets[j-1] > b {
			items[j], buckets[j] = items[j-1], buckets[j-1]
			j--
		}
		items[j], buckets[j] = it, b
	}
}

// levelHedgeDelay decides whether and when this level may hedge: the
// configured delay, floored at twice the level's best learned round-trip
// (a uniformly slow level — e.g. a far zone — must not hedge on every
// probe) and gated off entirely while the level is cold or when the floor
// reaches the client timeout (the sequential fallback fires then anyway).
func (c *Client) levelHedgeDelay(sites []transport.Addr, cfg readConfig) (time.Duration, bool) {
	best, known := c.scores.bestLatency(sites)
	if !known {
		return 0, false
	}
	d := cfg.hedgeDelay
	if floor := 2 * best; floor > d {
		d = floor
	}
	if d >= c.timeout {
		return 0, false
	}
	return d, true
}

// sent is one request a collector issued, with what accounting its outcome
// needs: the group it serves (a read's level, a 2PC round's target), when
// it left, and where and under which phase label the trace records it.
type sent struct {
	call  *rpc.Call
	group int
	start time.Time
	span  *obs.LevelSpan
	phase string
	hedge bool
	open  bool // outcome not yet collected
}

// collector runs an operation's quorum phases — read, version discovery,
// prepare, commit, abort — on the operation's own goroutine. Requests go
// out through rpc.Caller.Go; their outcomes (replies, timeouts, breaker
// fast-fails, cancellations) come back as events on one channel, and hedge
// deadlines tick on one timer, so no phase starts a goroutine per level or
// per contact.
type collector struct {
	c        *Client
	ctx      context.Context
	done     chan *rpc.Call
	sent     []sent
	inflight int
	timer    *time.Timer
	armed    time.Time // the deadline the timer is set for; zero when idle
}

func (c *Client) newCollector(ctx context.Context) *collector {
	return &collector{c: c, ctx: ctx}
}

// begin starts a phase that has at most width calls in flight at once. The
// reply channel holds that many outcomes, so the dispatcher never blocks
// delivering one.
func (col *collector) begin(width int) {
	col.sent = col.sent[:0]
	if cap(col.done) < width {
		col.done = make(chan *rpc.Call, width)
	}
}

// send issues one request; its outcome comes back through run.
func (col *collector) send(group int, to transport.Addr, req rpc.Request, span *obs.LevelSpan, phase string, hedge, force bool) {
	tag := len(col.sent)
	col.sent = append(col.sent, sent{group: group, start: time.Now(), span: span, phase: phase, hedge: hedge, open: true})
	col.inflight++
	if force {
		col.sent[tag].call = col.c.caller.Go(col.ctx, to, req, tag, col.done, rpc.ForceProbe())
	} else {
		col.sent[tag].call = col.c.caller.Go(col.ctx, to, req, tag, col.done)
	}
}

// run collects outcomes until no call is in flight, accounting each (see
// settle) before handing it to onReply, which may send more. nextHedge,
// when non-nil, reports the phase's earliest pending hedge; hedge is called
// when it is due. When the operation's context ends, every call still in
// flight is cancelled with the context's error, so each outcome is still
// collected and accounted.
func (col *collector) run(onReply func(s sent, resp any, err error, contact bool), nextHedge func() (time.Time, bool), hedge func()) {
	ctxDone := col.ctx.Done()
	for col.inflight > 0 {
		var tick <-chan time.Time
		if nextHedge != nil {
			if at, ok := nextHedge(); ok {
				tick = col.arm(at)
			}
		}
		select {
		case call := <-col.done:
			s := &col.sent[call.Tag]
			s.open = false
			col.inflight--
			contact, err := col.c.settle(*s, call)
			onReply(*s, call.Resp, err, contact)
		case <-tick:
			col.armed = time.Time{}
			hedge()
		case <-ctxDone:
			ctxDone = nil
			col.cancel(-1, col.ctx.Err())
		}
	}
	if !col.armed.IsZero() {
		col.timer.Stop()
		col.armed = time.Time{}
	}
}

// arm points the collector's timer at the deadline at.
func (col *collector) arm(at time.Time) <-chan time.Time {
	if col.timer == nil {
		col.timer = time.NewTimer(time.Until(at))
	} else if !at.Equal(col.armed) {
		if !col.timer.Stop() {
			select {
			case <-col.timer.C:
			default:
			}
		}
		col.timer.Reset(time.Until(at))
	}
	col.armed = at
	return col.timer.C
}

// cancel abandons the calls of group still in flight (every call when
// group < 0); each one's outcome arrives as err.
func (col *collector) cancel(group int, err error) {
	for i := range col.sent {
		if s := &col.sent[i]; s.open && (group < 0 || s.group == group) {
			col.c.caller.Cancel(s.call, err)
		}
	}
}

// round sends one request to each of n targets at once — the 2PC shape: no
// fallback, no hedging — and collects every outcome, handing each to
// onReply with its target's index. Once the operation's context has ended
// it sends nothing and returns the context's error.
func (col *collector) round(n int, target func(i int) (transport.Addr, rpc.Request), span *obs.LevelSpan, phase string, force bool, onReply func(i int, resp any, err error, contact bool)) error {
	if err := col.ctx.Err(); err != nil {
		return err
	}
	col.begin(n)
	for i := 0; i < n; i++ {
		to, req := target(i)
		col.send(i, to, req, span, phase, false, force)
	}
	col.run(func(s sent, resp any, err error, contact bool) {
		onReply(s.group, resp, err, contact)
	}, nil, nil)
	return nil
}

// settle accounts one collected outcome the same way for every phase and
// records it on the trace. ErrClosed surfaces as the client's ErrClosed. A
// breaker fast-fail is neither a contact (no message was sent) nor evidence
// about the site. Anything else was a contact: a reply or a timeout feeds
// the site's latency/failure EWMAs, a cancelled call is not scored (losing
// a hedge race says nothing about the site), and an overload shed is
// scored only as a refusal — the site answered instantly, it is alive, and
// ordering it last until it serves again is enough.
func (c *Client) settle(s sent, call *rpc.Call) (contact bool, err error) {
	err = call.Err
	switch {
	case errors.Is(err, rpc.ErrClosed):
		err = ErrClosed
	case errors.Is(err, rpc.ErrBreakerOpen):
	case errors.Is(err, ErrOverloaded):
		contact = true
		c.scores.markRefusing(call.To)
		if c.instr != nil {
			c.instr.overloadSkips.Inc()
		}
	default:
		contact = true
		if err == nil || errors.Is(err, rpc.ErrTimeout) {
			c.scores.record(call.To, time.Since(s.start), err != nil)
		}
	}
	if s.span.On() {
		s.span.Contact(int(call.To), s.phase, s.start, time.Since(s.start), err, errors.Is(err, rpc.ErrTimeout))
	}
	return contact, err
}

// flight is one in-progress coalesced read assembly.
type flight struct {
	done chan struct{}
	res  ReadResult
	err  error
}

// readShared coalesces concurrent reads of one key through this client
// into a single quorum assembly (singleflight): the first caller becomes
// the leader and runs the read; everyone else waits for its result. A
// follower whose own context is still live retries as leader if the shared
// attempt died of the leader's context, so one cancelled caller cannot
// fail the others.
func (c *Client) readShared(ctx context.Context, key string) (ReadResult, error) {
	for {
		c.flightMu.Lock()
		if f, ok := c.flights[key]; ok {
			c.flightMu.Unlock()
			select {
			case <-f.done:
				if f.err != nil && (errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					if ctx.Err() != nil {
						return ReadResult{}, ctx.Err()
					}
					continue // the leader's context died, not the quorum
				}
				return c.finishCoalesced(key, f)
			case <-ctx.Done():
				return ReadResult{}, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.flightMu.Unlock()

		f.res, f.err = c.readDirect(ctx, key, c.readDefaults())
		c.flightMu.Lock()
		delete(c.flights, key)
		c.flightMu.Unlock()
		close(f.done)
		return f.res, f.err
	}
}

// finishCoalesced accounts a follower's share of a coalesced read: the
// operation counts as a read (with zero contacts of its own) and records
// its trace. The value is handed off zero-copy: every follower shares the
// leader's buffer (see ReadResult.Value), which the replica store never
// aliases, so no caller can observe another's mutation through the store.
func (c *Client) finishCoalesced(key string, f *flight) (ReadResult, error) {
	op := c.traces.Start("read", key, c.id)
	if c.instr != nil {
		c.instr.coalesced.Inc()
	}
	res, err := f.res, f.err
	res.Contacts = 0
	switch {
	case err == nil:
		c.metrics.reads.Add(1)
		if c.instr != nil {
			c.instr.readOK.Inc()
		}
		op.Finish(obs.OutcomeOK, nil, 0)
	case errors.Is(err, ErrNotFound):
		c.metrics.reads.Add(1)
		if c.instr != nil {
			c.instr.readNotFound.Inc()
		}
		op.Finish(obs.OutcomeNotFound, nil, 0)
	default:
		c.metrics.readFailures.Add(1)
		if c.instr != nil {
			if errors.Is(err, ErrReadUnavailable) {
				c.instr.readUnavailable.Inc()
			} else {
				c.instr.ops.With("read", obs.OutcomeError).Inc()
			}
		}
		op.Finish(readOutcome(err), err, 0)
	}
	return res, err
}

// readConfig is the per-operation shape of a read (or of a write's version
// discovery): whether hedged backup probes may fire and after how long.
type readConfig struct {
	hedge      bool
	hedgeDelay time.Duration
}

// readDefaults snapshots the client-level read configuration.
func (c *Client) readDefaults() readConfig {
	return readConfig{hedge: c.hedging, hedgeDelay: c.hedgeDelay}
}

// ReadOption adjusts a single Read call without reconfiguring the client.
// A read carrying any per-operation option bypasses read coalescing (its
// result may differ from the shared assembly's).
type ReadOption interface{ applyRead(*readConfig) }

type readNoHedge struct{}

func (readNoHedge) applyRead(cfg *readConfig) { cfg.hedge = false }

// ReadWithoutHedge disables hedged backup probes for this read: each level
// probes one site at a time, waiting out the full client timeout before
// falling back — the protocol's plain sequential strategy.
func ReadWithoutHedge() ReadOption { return readNoHedge{} }

type readHedgeDelay time.Duration

func (o readHedgeDelay) applyRead(cfg *readConfig) {
	cfg.hedge = true
	cfg.hedgeDelay = time.Duration(o)
}

// ReadWithHedgeDelay overrides the hedge delay for this read (and forces
// hedging on). The per-level floor of twice the best learned round-trip
// still applies.
func ReadWithHedgeDelay(d time.Duration) ReadOption { return readHedgeDelay(d) }

// writeConfig is the per-operation shape of a write.
type writeConfig struct {
	read  readConfig // version-discovery probing
	level int        // preferred first level, -1 = engine-ordered
}

// WriteOption adjusts a single Write call without reconfiguring the
// client.
type WriteOption interface{ applyWrite(*writeConfig) }

type writeToLevel int

func (o writeToLevel) applyWrite(cfg *writeConfig) { cfg.level = int(o) }

// WriteToLevel makes this write try the given physical level's quorum
// first (0-based index into the protocol's physical levels), falling back
// to the other levels only if it cannot be fully prepared — e.g. pinning a
// hot key's writes to the client's local zone.
func WriteToLevel(u int) WriteOption { return writeToLevel(u) }

type writeNoHedge struct{}

func (writeNoHedge) applyWrite(cfg *writeConfig) { cfg.read.hedge = false }

// WriteWithoutHedge disables hedged backup probes for this write's version
// discovery.
func WriteWithoutHedge() WriteOption { return writeNoHedge{} }
