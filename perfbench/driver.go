package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"arbor/internal/client"
)

// warmupOps is how many ops each client runs before measuring: enough to
// fill the engine's site scores, open the breaker on a crashed site and
// grow the TCP connection pools.
const warmupOps = 300

// maxViolations caps how many output-check failures a run keeps verbatim.
const maxViolations = 10

// recorder accumulates one client's results. Latencies of failed ops stay
// in the sample: a failure counts against failed_ratio, never drops out.
type recorder struct {
	lat        [numOpKinds][]time.Duration
	at         [numOpKinds][]time.Duration // when each op returned, from the phase start
	failed     [numOpKinds]int
	attempted  int
	violations []string
	nviol      int
}

func (r *recorder) violate(format string, args ...any) {
	r.nviol++
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.at[k] = append(r.at[k], o.at[k]...)
		r.failed[k] += o.failed[k]
	}
	r.attempted += o.attempted
	r.nviol += o.nviol
	for _, v := range o.violations {
		if len(r.violations) < maxViolations {
			r.violations = append(r.violations, v)
		}
	}
}

func (r *recorder) totalFailed() int {
	n := 0
	for _, f := range r.failed {
		n += f
	}
	return n
}

// runner is one closed-loop client: it sends its next op only when the
// previous one returned.
type runner struct {
	s      *stack
	idx    int
	c      *client.Client
	stream *opStream
	rec    recorder
	t0     time.Time // start of the current phase
}

func newRunners(s *stack, seed int64) []*runner {
	rs := make([]*runner, numClients)
	for i := range rs {
		rs[i] = &runner{s: s, idx: i, c: s.clients[i], stream: newOpStream(s.w, seed, i)}
	}
	return rs
}

// runAll runs every runner concurrently until each has done n ops (when
// n > 0) or the deadline passed (when set), and returns the wall time from
// start until the last op returned.
func runAll(rs []*runner, n int, deadline time.Time) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range rs {
		r.t0 = start
		wg.Add(1)
		go func(r *runner) {
			defer wg.Done()
			for i := 0; n <= 0 || i < n; i++ {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				r.do(r.stream.next())
			}
		}(r)
	}
	wg.Wait()
	return time.Since(start)
}

// do executes one op, records its latency and outcome, and checks what a
// read returned.
func (r *runner) do(o op) {
	ctx := context.Background()
	ks := &r.s.keys[o.keys[0]]
	name := r.s.names[o.keys[0]]
	var tc *tracedConn
	var opID uint64
	if r.s.tracer != nil {
		tc = r.s.tconns[r.idx]
		opID = r.s.tracer.beginOp(tc)
	}
	var vals [2][]byte                 // generated before the clock starts
	for i := 0; i < int(o.kind); i++ { // a write sets one key, a txn two
		vals[i] = writtenValue(r.idx, o.seq, o.keys[i])
	}
	var err error
	start := time.Now()
	switch o.kind {
	case opRead:
		lower := ks.acked.Load()
		var res client.ReadResult
		res, err = r.c.Read(ctx, name)
		d := time.Since(start)
		r.s.tracer.endOp(tc, opID, o.kind, start, d)
		r.record(o.kind, start, d)
		if err == nil {
			r.checkRead(o.keys[0], res.Value, lower, ks.issued.Load())
		}
	case opWrite:
		ks.issued.Store(o.seq)
		_, err = r.c.Write(ctx, name, vals[0])
		d := time.Since(start)
		r.s.tracer.endOp(tc, opID, o.kind, start, d)
		r.record(o.kind, start, d)
		r.settle(err, o, 1)
	case opTxn:
		tx := r.c.NewTxn()
		for i, k := range o.keys {
			r.s.keys[k].issued.Store(o.seq)
			if werr := tx.Write(r.s.names[k], vals[i]); werr != nil {
				err = werr
			}
		}
		if err == nil {
			err = tx.Commit(ctx)
		}
		d := time.Since(start)
		r.s.tracer.endOp(tc, opID, o.kind, start, d)
		r.record(o.kind, start, d)
		r.settle(err, o, 2)
	}
	r.rec.attempted++
	if err != nil {
		r.rec.failed[o.kind]++
		if r.rec.failed[o.kind] == 1 {
			fmt.Printf("client %d: first failed %s: %v\n", r.idx, o.kind, err)
		}
	}
}

func (r *runner) record(k opKind, start time.Time, d time.Duration) {
	r.rec.lat[k] = append(r.rec.lat[k], d)
	r.rec.at[k] = append(r.rec.at[k], start.Add(d).Sub(r.t0))
}

// settle records a write's outcome on the keys it wrote.
func (r *runner) settle(err error, o op, nkeys int) {
	r.s.keyWrites.Add(int64(nkeys))
	for _, k := range o.keys[:nkeys] {
		if err == nil {
			r.s.keys[k].acked.Store(o.seq)
		} else {
			r.s.keys[k].doubt.Store(true)
		}
	}
}

// checkRead checks a read of key k: it must return the preload or a value
// the key's owner wrote to that key, no older than the last write acked
// before the read started (lower) and no newer than the last write sent
// before it returned (upper).
func (r *runner) checkRead(k int, v []byte, lower, upper uint64) {
	pv, err := parseValue(v)
	switch {
	case err != nil:
		r.rec.violate("read %s: %v", r.s.names[k], err)
	case pv.key != k:
		r.rec.violate("read %s returned the value of key %d", r.s.names[k], pv.key)
	case pv.preload:
		if lower != 0 {
			r.rec.violate("read %s returned the preload after write seq %d was acked", r.s.names[k], lower)
		}
	case pv.client != k%numClients:
		r.rec.violate("read %s returned a value written by client %d, which does not own it", r.s.names[k], pv.client)
	case pv.seq < lower || pv.seq > upper:
		r.rec.violate("read %s returned seq %d outside [%d, %d]", r.s.names[k], pv.seq, lower, upper)
	}
}

// readBack makes the runner read every key it owns and checks it sees its
// last acknowledged value (or, where a write failed, something between
// that and the last write sent).
func (r *runner) readBack() {
	ctx := context.Background()
	for k := r.idx; k < numKeys; k += numClients {
		ks := &r.s.keys[k]
		res, err := r.c.Read(ctx, r.s.names[k])
		r.rec.attempted++
		if err != nil {
			r.rec.failed[opRead]++
			r.rec.violate("read-back %s: %v", r.s.names[k], err)
			continue
		}
		acked, issued := ks.acked.Load(), ks.issued.Load()
		if !ks.doubt.Load() {
			issued = acked
		}
		r.checkRead(k, res.Value, acked, issued)
	}
}
