package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/transport"
	"arbor/internal/wire"
)

// The tracer measures each layer from outside, through public functions
// only: every endpoint's transport.Conn is wrapped in a timing decorator
// (tracedConn), and the driver marks where each client op starts and ends.
// Spans are kept in memory and written out when the run ends.

type spanKind uint8

const (
	spanOp      spanKind = iota // layer client: one Read, Write or Txn
	spanContact                 // layer rpc: client Send → matching reply on Recv
	spanService                 // layer replica: request delivered → reply sent
)

var spanLayer = [...]string{"client", "rpc", "replica"}

// Message kinds: a request and its reply share one.
const (
	msgRead uint8 = iota
	msgVersion
	msgPrepare
	msgCommit
	msgAbort
	msgPing
	msgSync
	msgOverloaded
	msgOther
)

var msgNames = [...]string{"read", "version", "prepare", "commit", "abort", "ping", "sync", "overloaded", "other"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; end < 0 marks a contact that never saw its reply. The spans of
// one op share its op ID; a contact's parent is its op, and a replica
// service span's parent is the contact it served.
type span struct {
	id, parent, op uint64
	start, end     int64
	reqID          uint64
	client, site   int32
	kind           spanKind
	name           uint8 // opKind for spanOp, message kind otherwise
}

// maxCaptured bounds the sent messages kept for the wire codec timing.
const maxCaptured = 8192

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	sends, sendNanos, wireBytes atomic.Int64
	encodeErrors                atomic.Int64

	capMu    sync.Mutex
	captured []any
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp allocates an op ID and marks it as the op running on the
// client's connection: each client has at most one op in flight, so every
// contact sent meanwhile belongs to it. Nil-safe.
func (t *tracer) beginOp(tc *tracedConn) uint64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	tc.op.Store(id)
	return id
}

// endOp records the op's span and clears the running op. Nil-safe.
func (t *tracer) endOp(tc *tracedConn, id uint64, kind opKind, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	tc.op.Store(0)
	if t.on.Load() {
		st := int64(start.Sub(t.epoch))
		t.add(span{id: id, op: id, start: st, end: st + int64(d), client: int32(tc.Addr()), kind: spanOp, name: uint8(kind)})
	}
}

// classify returns a payload's request ID and message kind, and whether it
// is a request (as opposed to a reply).
func classify(p any) (reqID uint64, kind uint8, isReq bool) {
	switch m := p.(type) {
	case wire.ReadReq:
		return m.ReqID, msgRead, true
	case wire.ReadResp:
		return m.ReqID, msgRead, false
	case wire.VersionReq:
		return m.ReqID, msgVersion, true
	case wire.VersionResp:
		return m.ReqID, msgVersion, false
	case wire.PrepareReq:
		return m.ReqID, msgPrepare, true
	case wire.PrepareResp:
		return m.ReqID, msgPrepare, false
	case wire.CommitReq:
		return m.ReqID, msgCommit, true
	case wire.CommitResp:
		return m.ReqID, msgCommit, false
	case wire.AbortReq:
		return m.ReqID, msgAbort, true
	case wire.AbortResp:
		return m.ReqID, msgAbort, false
	case wire.PingReq:
		return m.ReqID, msgPing, true
	case wire.PingResp:
		return m.ReqID, msgPing, false
	case wire.SyncDigestReq:
		return m.ReqID, msgSync, true
	case wire.SyncDigestResp:
		return m.ReqID, msgSync, false
	case wire.SyncFetchReq:
		return m.ReqID, msgSync, true
	case wire.SyncFetchResp:
		return m.ReqID, msgSync, false
	case wire.OverloadedResp:
		return m.ReqID, msgOverloaded, false
	}
	return 0, msgOther, false
}

type pendKey struct {
	peer  transport.Addr
	reqID uint64
}

type pending struct {
	id, op uint64
	start  int64
	kind   uint8
}

// tracedConn decorates a transport.Conn. On a client it opens a contact
// span when a request is sent and closes it when the reply with the same
// request ID arrives; on a replica it opens a service span when a request
// is delivered and closes it when the reply is sent. Every Send is timed
// and its payload sized with the binary codec.
type tracedConn struct {
	t        *tracer
	inner    transport.Conn
	isClient bool
	op       atomic.Uint64 // op running on this client connection

	mu      sync.Mutex
	pending map[pendKey]pending

	out  chan transport.Message
	quit chan struct{}
	done chan struct{}
}

var _ transport.Conn = (*tracedConn)(nil)

func newTracedConn(t *tracer, inner transport.Conn, isClient bool) *tracedConn {
	tc := &tracedConn{
		t: t, inner: inner, isClient: isClient,
		pending: make(map[pendKey]pending),
		out:     make(chan transport.Message, cap(inner.Recv())),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go tc.forward()
	return tc
}

func (c *tracedConn) Addr() transport.Addr { return c.inner.Addr() }

func (c *tracedConn) Recv() <-chan transport.Message { return c.out }

func (c *tracedConn) Send(to transport.Addr, payload any) error {
	t := c.t
	if !t.on.Load() {
		return c.inner.Send(to, payload)
	}
	reqID, kind, isReq := classify(payload)
	now := t.now()
	switch {
	case c.isClient && isReq:
		// Registered before sending: the reply can arrive before Send returns.
		c.mu.Lock()
		c.pending[pendKey{to, reqID}] = pending{id: t.ids.Add(1), op: c.op.Load(), start: now, kind: kind}
		c.mu.Unlock()
	case !c.isClient && !isReq:
		c.mu.Lock()
		p, ok := c.pending[pendKey{to, reqID}]
		delete(c.pending, pendKey{to, reqID})
		c.mu.Unlock()
		if ok {
			t.add(span{id: t.ids.Add(1), start: p.start, end: now, reqID: reqID,
				client: int32(to), site: int32(c.Addr()), kind: spanService, name: p.kind})
		}
	}
	start := time.Now()
	err := c.inner.Send(to, payload)
	t.sendNanos.Add(int64(time.Since(start)))
	t.sends.Add(1)
	t.account(payload)
	return err
}

// forward moves delivered messages from the wrapped endpoint to Recv,
// timestamping replies (client) or requests (replica) on the way.
func (c *tracedConn) forward() {
	defer close(c.done)
	for {
		var m transport.Message
		select {
		case <-c.quit:
			return
		case m = <-c.inner.Recv():
		}
		if c.t.on.Load() {
			c.observe(m)
		}
		select {
		case c.out <- m:
		case <-c.quit:
			return
		}
	}
}

func (c *tracedConn) observe(m transport.Message) {
	t := c.t
	now := t.now()
	reqID, kind, isReq := classify(m.Payload)
	key := pendKey{m.From, reqID}
	switch {
	case c.isClient && !isReq:
		c.mu.Lock()
		p, ok := c.pending[key]
		delete(c.pending, key)
		c.mu.Unlock()
		if ok {
			t.add(span{id: p.id, parent: p.op, op: p.op, start: p.start, end: now, reqID: reqID,
				client: int32(c.Addr()), site: int32(m.From), kind: spanContact, name: p.kind})
		}
	case !c.isClient && isReq:
		c.mu.Lock()
		c.pending[key] = pending{start: now, kind: kind}
		c.mu.Unlock()
	}
}

// flushUnmatched records every contact still waiting for its reply as a
// span with no end.
func (c *tracedConn) flushUnmatched() {
	if !c.isClient {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, p := range c.pending {
		c.t.add(span{id: p.id, parent: p.op, op: p.op, start: p.start, end: -1, reqID: k.reqID,
			client: int32(c.Addr()), site: int32(k.peer), kind: spanContact, name: p.kind})
	}
	clear(c.pending)
}

// stop ends the forwarding goroutine and waits for it.
func (c *tracedConn) stop() {
	close(c.quit)
	<-c.done
}

var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// account sizes the payload with the binary codec and keeps the first
// maxCaptured payloads for the codec timing.
func (t *tracer) account(payload any) {
	bp := encodePool.Get().(*[]byte)
	buf, err := wire.Binary().Encode((*bp)[:0], payload)
	if err != nil {
		t.encodeErrors.Add(1)
	}
	t.wireBytes.Add(int64(len(buf)))
	*bp = buf
	encodePool.Put(bp)
	t.capMu.Lock()
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, payload)
	}
	t.capMu.Unlock()
}

// selfTime returns the part of the op's duration that none of its contact
// spans covers, and the covered part. Contact spans are clipped to the op;
// an unanswered contact covers the op until it ended.
func selfTime(op span, contacts []span) (self, covered int64) {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(contacts))
	for _, c := range contacts {
		a, b := c.start, c.end
		if b < 0 || b > op.end {
			b = op.end
		}
		if a < op.start {
			a = op.start
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var curA, curB int64 = 0, -1
	for _, x := range ivs {
		if x.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = x.a, x.b
		} else if x.b > curB {
			curB = x.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return op.end - op.start - covered, covered
}

// callKey names one call: the client that sent a request, the site it
// went to and its request ID. A contact and the replica service span that
// served it share one.
type callKey struct {
	client, site int32
	reqID        uint64
}

func (s *span) call() callKey { return callKey{s.client, s.site, s.reqID} }

// traceData is the tracer's spans joined: ops in ID order, each op's
// contacts in send order, and the replica service spans by the call they
// served. maxTracedOps bounds all of it.
type traceData struct {
	ops      []span
	contacts map[uint64][]span // by op ID; op 0 holds contacts sent outside any traced op
	services map[callKey]*span // into the tracer's spans
}

// join links the spans: each service span gets the contact it served as
// parent and that contact's op. Call it once tracing is off.
func (t *tracer) join() traceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := traceData{contacts: make(map[uint64][]span), services: make(map[callKey]*span)}
	for i := range t.spans {
		switch s := &t.spans[i]; s.kind {
		case spanOp:
			d.ops = append(d.ops, *s)
		case spanService:
			d.services[s.call()] = s
		}
	}
	for _, c := range t.spans {
		if c.kind == spanContact {
			d.contacts[c.op] = append(d.contacts[c.op], c)
			if s, ok := d.services[c.call()]; ok {
				s.parent, s.op = c.id, c.op
			}
		}
	}
	sort.Slice(d.ops, func(i, j int) bool { return d.ops[i].id < d.ops[j].id })
	for _, cs := range d.contacts {
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	}
	return d
}

// writeSpans writes every span as one tab-separated line, gzip-compressed.
// Call it after join, which gives each replica service span its parent.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tname\tclient\tsite\treq_id\tstart_ns\tend_ns")
	var line []byte
	t.mu.Lock()
	for _, s := range t.spans {
		name := spanLayer[s.kind] + "." + msgNames[min(int(s.name), len(msgNames)-1)]
		if s.kind == spanOp {
			name = "client." + opKind(s.name).String()
		}
		line = strconv.AppendUint(line[:0], s.id, 10)
		line = append(strconv.AppendUint(append(line, '\t'), s.parent, 10), '\t')
		line = append(strconv.AppendUint(line, s.op, 10), '\t')
		line = append(append(line, name...), '\t')
		line = append(strconv.AppendInt(line, int64(s.client), 10), '\t')
		line = append(strconv.AppendInt(line, int64(s.site), 10), '\t')
		line = append(strconv.AppendUint(line, s.reqID, 10), '\t')
		line = append(strconv.AppendInt(line, s.start, 10), '\t')
		line = append(strconv.AppendInt(line, s.end, 10), '\n')
		bw.Write(line)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
