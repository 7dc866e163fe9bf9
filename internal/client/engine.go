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
	"arbor/internal/tree"
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

// siteScore is one site's learned health: latency and failure EWMAs, and
// whether its last probe was refused.
type siteScore struct {
	lat     float64 // round-trip EWMA, nanoseconds
	fail    float64 // failure-rate EWMA in [0,1]
	samples uint64
	// refusing marks a site that answered a probe with a catching-up
	// refusal: alive but not serving reads. Cleared on the next successful
	// serve. Kept out of the latency/failure EWMAs — a refusal is neither
	// slow nor dead, and folding it in would poison the site's scores for
	// long after it rejoins.
	refusing bool
}

// known reports whether any call to the site was ever recorded.
func (e siteScore) known() bool { return e.samples > 0 }

// scoreboard tracks per-site scores for one client. Safe for concurrent
// use.
type scoreboard struct {
	mu sync.Mutex
	m  map[transport.Addr]siteScore
}

func newScoreboard() *scoreboard {
	return &scoreboard{m: make(map[transport.Addr]siteScore)}
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
	if !failed {
		e.refusing = false
	}
	s.m[addr] = e
	s.mu.Unlock()
}

// markRefusing records a catching-up refusal from the site.
func (s *scoreboard) markRefusing(addr transport.Addr) {
	s.mu.Lock()
	e := s.m[addr]
	e.refusing = true
	s.m[addr] = e
	s.mu.Unlock()
}

// fill snapshots every site's score into out (len(out) == len(sites))
// under a single lock acquisition — the ordering passes run on every
// operation, so they must not take the scoreboard lock per site.
func (s *scoreboard) fill(sites []transport.Addr, out []siteScore) {
	s.mu.Lock()
	for i, a := range sites {
		out[i] = s.m[a]
	}
	s.mu.Unlock()
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

// orderScratch is an ordering pass's working memory, kept with a pooled
// collector so ordering allocates nothing per operation.
type orderScratch struct {
	scores  []siteScore
	open    []bool
	buckets []int8
	sites   []transport.Addr // one level's sites, for orderLevels
	ranks   []int8           // each write-order position's bucket
}

// grow sizes the per-site scratch for n sites.
func (s *orderScratch) grow(n int) (scores []siteScore, open []bool, buckets []int8) {
	if cap(s.scores) < n {
		s.scores = make([]siteScore, n)
		s.open = make([]bool, n)
		s.buckets = make([]int8, n)
	}
	return s.scores[:n], s.open[:n], s.buckets[:n]
}

// orderSites writes level u's sites into out (len(out) == the level's
// size) in probe order: the paper's uniform shuffle stable-sorted by
// coarse health buckets (failure class first, then latency class relative
// to the level's best). Healthy sites of the same speed class stay
// uniformly ordered — preserving the optimal read load of the uniform
// strategy — while known-slow or failing sites are tried last, and
// open-breaker or catching-up sites last of all. One in exploreEvery calls
// promotes a random candidate to the front so scores cannot go permanently
// stale. It returns the level's best learned round-trip (known is false
// while no site of the level has been scored, and for one-site levels,
// which never hedge).
func (c *Client) orderSites(proto *core.Protocol, u int, out []transport.Addr, s *orderScratch) (best time.Duration, known bool) {
	levelAddrs(out[:0], proto.LevelSites(u))
	n := len(out)
	c.rngMu.Lock()
	c.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	explore, idx := false, 0
	if n >= 2 {
		explore = c.rng.Intn(exploreEvery) == 0
		if explore {
			idx = c.rng.Intn(n)
		}
	}
	c.rngMu.Unlock()
	if n < 2 {
		return 0, false
	}
	scores, open, buckets := c.health(out, s)
	lat := math.MaxFloat64
	for _, e := range scores {
		if e.known() && e.lat < lat {
			lat, known = e.lat, true
		}
	}
	material := float64(c.hedgeDelay)
	for i, e := range scores {
		switch {
		case e.refusing || open[i]:
			buckets[i] = skipBucket
		case !e.known():
			buckets[i] = 0 // cold site: treat as healthy until probed
		default:
			buckets[i] = int8(failBucket(e.fail)*3 + latBucket(e.lat, lat, material))
		}
	}
	stableSortByBucket(out, buckets)
	if explore && idx > 0 {
		picked := out[idx]
		copy(out[1:idx+1], out[:idx])
		out[0] = picked
	}
	if !known {
		return 0, false
	}
	return time.Duration(lat), true
}

// orderLevels writes the physical level indices into order (len(order) ==
// the number of levels) in write-attempt order: the paper's uniform
// rotation stable-sorted by each level's worst member failure bucket, so a
// level whose 2PC would stall on a known-failing member is tried last.
// Healthy levels keep the uniform rotation, preserving the optimal write
// load. (A level is as available as its least available member — the
// write quorum needs all of them — so the bucket is the max over members.
// Latency is deliberately ignored: a uniformly far level is still a
// correct and load-bearing write quorum.)
func (c *Client) orderLevels(proto *core.Protocol, order []int, s *orderScratch) {
	l := len(order)
	c.rngMu.Lock()
	start := c.rng.Intn(l)
	c.rngMu.Unlock()
	for i := range order {
		order[i] = (start + i) % l
	}
	if l < 2 {
		return
	}
	if cap(s.ranks) < l {
		s.ranks = make([]int8, l)
	}
	ranks := s.ranks[:l]
	for u := 0; u < l; u++ {
		s.sites = levelAddrs(s.sites, proto.LevelSites(u))
		scores, open, _ := c.health(s.sites, s)
		worst := 0.0
		for i, e := range scores {
			if open[i] {
				// An open breaker means the member just failed repeatedly;
				// a 2PC through this level would stall on it.
				worst = 1.0
				break
			}
			if e.known() && e.fail > worst {
				worst = e.fail
			}
		}
		ranks[(u-start+l)%l] = int8(failBucket(worst)) // level u's position in the rotation
	}
	stableSortByBucket(order, ranks)
}

// health snapshots the sites' scores under one scoreboard lock and their
// breakers under one breaker lock, into s's scratch; buckets is scratch of
// the same length.
func (c *Client) health(sites []transport.Addr, s *orderScratch) (scores []siteScore, open []bool, buckets []int8) {
	scores, open, buckets = s.grow(len(sites))
	c.scores.fill(sites, scores)
	c.caller.OpenBreakers(sites, open)
	return scores, open, buckets
}

// levelAddrs copies a level's sites into buf, reusing its storage when
// it is large enough.
func levelAddrs(buf []transport.Addr, level []tree.SiteID) []transport.Addr {
	buf = buf[:0]
	for _, site := range level {
		buf = append(buf, transport.Addr(site))
	}
	return buf
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

// levelHedgeDelay decides whether and when a level whose best learned
// round-trip is best (known false while the level is cold) may hedge: the
// configured delay, floored at twice best (a uniformly slow level — e.g. a
// far zone — must not hedge on every probe) and gated off entirely while
// the level is cold or when the floor reaches the client timeout (the
// sequential fallback fires then anyway).
func (c *Client) levelHedgeDelay(best time.Duration, known bool, cfg readConfig) (time.Duration, bool) {
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
// fast-fails, cancellations) come back as events on one channel, and the
// reply deadlines and hedge deadlines all tick on one timer, so no phase
// starts a goroutine or a timer per level or per contact. Collectors are pooled
// per client with their buffers, so a warm operation allocates none.
type collector struct {
	c        *Client
	ctx      context.Context
	done     chan *rpc.Call
	sent     []sent
	inflight int
	due      int // sent[:due] have had their reply deadlines enforced
	timer    *time.Timer
	armed    time.Time // the deadline the timer is set for; zero when idle

	// Per-operation buffers, reused across operations: a read's levels
	// and their candidate sites (one backing array), a write's level order,
	// and the ordering passes' scratch.
	levels  []levelRead
	sites   []transport.Addr
	order   []int
	scratch orderScratch
}

// newCollector takes a collector from the client's pool; release returns
// it.
func (c *Client) newCollector(ctx context.Context) *collector {
	col, _ := c.collectors.Get().(*collector)
	if col == nil {
		col = &collector{c: c}
	}
	col.ctx = ctx
	return col
}

// release returns the collector to its client's pool. Every call it sent
// has been collected by then, so nothing can still deliver to its channel;
// the references its buffers hold are dropped so a pooled collector pins
// no reply.
func (col *collector) release() {
	clear(col.sent[:cap(col.sent)])
	col.sent = col.sent[:0]
	clear(col.levels[:cap(col.levels)])
	col.ctx = nil
	col.c.collectors.Put(col)
}

// begin starts a phase that has at most width calls in flight at once. The
// reply channel holds that many outcomes, so the dispatcher never blocks
// delivering one.
func (col *collector) begin(width int) {
	col.sent = col.sent[:0]
	col.due = 0
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
// settle) before handing it to onReply, which may send more. The one timer
// is set to the earliest of the next reply deadline and, when nextHedge is
// non-nil, the phase's earliest pending hedge; when it fires, every call
// past its deadline is expired (its timeout arrives as an outcome) and
// hedge, when non-nil, launches whatever hedges are due. When the
// operation's context ends, every call still in flight is cancelled with
// the context's error, so each outcome is still collected and accounted.
func (col *collector) run(onReply func(s sent, resp any, err error, contact bool), nextHedge func() (time.Time, bool), hedge func()) {
	ctxDone := col.ctx.Done()
	for col.inflight > 0 {
		at, ok := col.nextDeadline()
		if nextHedge != nil {
			if h, hok := nextHedge(); hok && (!ok || h.Before(at)) {
				at, ok = h, true
			}
		}
		var tick <-chan time.Time
		if ok {
			tick = col.arm(at)
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
			col.expire(time.Now())
			if hedge != nil {
				hedge()
			}
		case <-ctxDone:
			ctxDone = nil
			col.cancel(-1, col.ctx.Err())
		}
	}
	if !col.armed.IsZero() {
		col.stopTimer()
	}
}

// nextDeadline returns the earliest reply deadline not yet enforced among
// the calls in flight. Deadlines never decrease in send order, so it is the
// first such call's.
func (col *collector) nextDeadline() (time.Time, bool) {
	for ; col.due < len(col.sent); col.due++ {
		if s := &col.sent[col.due]; s.open && !s.call.Deadline.IsZero() {
			return s.call.Deadline, true
		}
	}
	return time.Time{}, false
}

// expire times out every call in flight whose reply deadline is at or
// before now; each timeout arrives on the collector's channel.
func (col *collector) expire(now time.Time) {
	for ; col.due < len(col.sent); col.due++ {
		s := &col.sent[col.due]
		if !s.open || s.call.Deadline.IsZero() {
			continue
		}
		if now.Before(s.call.Deadline) {
			return
		}
		col.c.caller.Expire(s.call)
	}
}

// arm makes the collector's timer fire no later than at. A timer already
// set to fire earlier is left alone: the early tick finds nothing due, and
// the loop re-arms. So a phase whose calls all answer in time sets the
// timer once, however many replies move its earliest deadline later.
func (col *collector) arm(at time.Time) <-chan time.Time {
	switch {
	case col.timer == nil:
		col.timer = time.NewTimer(time.Until(at))
	case col.armed.IsZero():
		col.timer.Reset(time.Until(at))
	case at.Before(col.armed):
		col.stopTimer()
		col.timer.Reset(time.Until(at))
	default:
		return col.timer.C
	}
	col.armed = at
	return col.timer.C
}

// stopTimer stops the armed timer, draining a tick it already sent.
func (col *collector) stopTimer() {
	if !col.timer.Stop() {
		select {
		case <-col.timer.C:
		default:
		}
	}
	col.armed = time.Time{}
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
