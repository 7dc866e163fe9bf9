package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"arbor/internal/replica"
	"arbor/internal/wire"
)

// counters are the program's own exported counters, read from the traced
// stack's registry and clients.
type counters struct {
	reads, writes, readContacts, writeContacts uint64
	hedges, hedgeWins, levelFallbacks, retries uint64
	timeouts, fastFails                        uint64
	lockWaitCount                              uint64
	lockWait                                   time.Duration
}

func (s *stack) counters() counters {
	var c counters
	for _, cl := range s.clients {
		m := cl.Metrics()
		c.reads += m.Reads
		c.writes += m.Writes
		c.readContacts += m.ReadContacts
		c.writeContacts += m.WriteContacts
	}
	reg := s.reg
	hedges := reg.CounterVec("arbor_client_hedges_total", "", "event")
	c.hedges = hedges.With("launched").Value()
	c.hedgeWins = hedges.With("win").Value()
	c.levelFallbacks = reg.CounterVec("arbor_client_fallbacks_total", "", "kind").With("level").Value()
	retries := reg.CounterVec("arbor_client_retries_total", "", "kind")
	c.retries = retries.With("commit").Value() + retries.With("level").Value()
	c.timeouts = reg.Counter("arbor_rpc_timeouts_total", "").Value()
	c.fastFails = reg.Counter("arbor_rpc_breaker_fastfails_total", "").Value()
	lw := reg.Histogram("arbor_replica_lock_wait_seconds", "")
	c.lockWaitCount, c.lockWait = lw.Count(), lw.Sum()
	return c
}

func (s *stack) sheds() uint64 {
	var n uint64
	for _, r := range s.replicas {
		n += r.Stats().Sheds
	}
	return n
}

// maxTracedOps caps the ops of a traced phase, and with them the spans
// held in memory: tens of thousands of ops give stable per-layer medians,
// while a full phase of a fast workload would hold millions of spans.
const maxTracedOps = 40000

// runTraced runs the workload twice: untraced for d/2, for the runtime
// counters and the reference throughput, then traced for d/2 or
// maxTracedOps ops, whichever ends first, for the per-layer metrics. Spans and CPU and alloc profiles go to
// dir/trace/<workload>/, replacing those of the workload's previous traced
// run.
func runTraced(w workload, seed int64, d time.Duration, dir string) (result, error) {
	outDir := filepath.Join(dir, "trace", w.name)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	var total recorder

	// Untraced reference: runtime cost per op with no wrappers or observers.
	ref, err := setupPhase(w, seed, dir, nil)
	if err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	ref.run(d/2, 0)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	sheds := ref.s.sheds()
	ref.discard()
	total.merge(&ref.total)
	refOps := float64(ref.measure.attempted)

	// Traced run, on a fresh heap.
	runtime.GC()
	debug.FreeOSMemory()
	tr := newTracer()
	p, err := setupPhase(w, seed, dir, tr)
	if err != nil {
		return result{}, err
	}
	c0 := p.s.counters()
	cpuProf, err := os.Create(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return result{}, err
	}
	defer cpuProf.Close()
	if err := pprof.StartCPUProfile(cpuProf); err != nil {
		return result{}, err
	}
	tr.on.Store(true)
	p.run(d/2, maxTracedOps/numClients)
	tr.on.Store(false)
	pprof.StopCPUProfile()
	c1 := p.s.counters()
	for _, tc := range p.s.tconns {
		tc.flushUnmatched()
	}
	sheds += p.s.sheds()
	p.finish()
	total.merge(&p.total)
	var walRecords, walBytes int64
	if w.wal {
		walRecords, walBytes, err = p.s.walStats()
		p.s.removeWALs()
		if err != nil {
			return result{}, err
		}
	}
	if err := writeProfile("allocs", filepath.Join(outDir, "allocs.pprof")); err != nil {
		return result{}, err
	}
	data := tr.join()
	if err := tr.writeSpans(filepath.Join(outDir, "spans.tsv.gz")); err != nil {
		return result{}, err
	}

	ops := float64(p.measure.attempted)
	res := newResult(&total)
	lm := layerMetrics(data)
	res.add("client.read_self_us", "us", lm.readSelf)
	res.add("client.write_self_us", "us", lm.writeSelf)
	res.add("client.contacts_per_read", "count", ratio(c1.readContacts-c0.readContacts, c1.reads-c0.reads))
	res.add("client.contacts_per_write", "count", ratio(c1.writeContacts-c0.writeContacts, c1.writes-c0.writes))
	res.add("client.hedges_per_op", "count", float64(c1.hedges-c0.hedges)/ops)
	res.add("client.hedge_win_ratio", "1", ratio(c1.hedgeWins-c0.hedgeWins, c1.hedges-c0.hedges))
	res.add("client.level_fallbacks_per_op", "count", float64(c1.levelFallbacks-c0.levelFallbacks)/ops)
	res.add("client.retries_per_op", "count", float64(c1.retries-c0.retries)/ops)
	res.add("rpc.contact_rtt_p50_us", "us", lm.rttP50)
	res.add("rpc.contact_rtt_p99_us", "us", lm.rttP99)
	res.add("rpc.timeouts_per_op", "count", float64(c1.timeouts-c0.timeouts)/ops)
	res.add("rpc.breaker_fastfails_per_op", "count", float64(c1.fastFails-c0.fastFails)/ops)
	res.add("transport.msgs_per_op", "count", float64(tr.sends.Load())/ops)
	res.add("transport.bytes_per_op", "B", float64(tr.wireBytes.Load())/ops)
	res.add("transport.send_us", "us", float64(tr.sendNanos.Load())/float64(max(tr.sends.Load(), 1))/1e3)
	res.add("transport.transit_us", "us", lm.transit)
	enc, dec := codecTiming(tr.captured)
	res.add("wire.encode_ns", "ns", enc)
	res.add("wire.decode_ns", "ns", dec)
	for _, k := range []uint8{msgRead, msgVersion, msgPrepare, msgCommit} {
		res.add("replica."+msgNames[k]+"_service_us", "us", lm.service[k])
	}
	lockWait := 0.0
	if n := c1.lockWaitCount - c0.lockWaitCount; n > 0 {
		lockWait = us(c1.lockWait-c0.lockWait) / float64(n)
	}
	res.add("replica.lock_wait_us", "us", lockWait)
	res.add("replica.sheds", "count", float64(sheds))
	appendUS, err := walAppendTiming(dir)
	if err != nil {
		return result{}, err
	}
	res.add("wal.append_us", "us", appendUS)
	if w.wal {
		keyWrites := float64(max(p.s.keyWrites.Load(), 1))
		res.add("wal.appends_per_write", "count", float64(walRecords)/keyWrites)
		res.add("wal.bytes_per_write", "B", float64(walBytes)/keyWrites)
	}
	res.add("runtime.cpu_us_per_op", "us", us(cpu1-cpu0)/refOps)
	res.add("runtime.allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/refOps)
	res.add("runtime.gc_cycles_per_kop", "count", float64(ms1.NumGC-ms0.NumGC)*1000/refOps)
	res.add("trace.overhead_pct", "%", (ref.opsPerSec()-p.opsPerSec())/ref.opsPerSec()*100)

	if err := lm.reconcileErr; err != nil {
		msg := "trace reconciliation failed: "
		if w.crashOne {
			msg = "trace reconciliation (a site is down, so unanswered contacts are expected): "
		}
		res.notes = append(res.notes, msg+err.Error())
	}
	if n := tr.encodeErrors.Load(); n > 0 {
		res.notes = append(res.notes, fmt.Sprintf("WARNING: %d sent payloads did not encode", n))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("traced ops %d (%.0f ops/s), untraced ops %.0f (%.0f ops/s); traced contacts %d, unanswered %d; replica service spans %d",
			p.measure.attempted, p.opsPerSec(), refOps, ref.opsPerSec(), lm.contacts, lm.unanswered, len(data.services)),
		fmt.Sprintf("peak RSS %.1f MiB", maxRSSMiB()),
		"spans, cpu.pprof and allocs.pprof in "+outDir)
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers holds the span-derived per-layer figures.
type layers struct {
	readSelf, writeSelf float64 // median self time per op, µs
	rttP50, rttP99      float64
	transit             float64 // median of contact RTT − replica service, µs
	service             map[uint8]float64
	contacts            int // contacts of traced ops
	unanswered          int
	reconcileErr        error
}

func spanDur(s span) time.Duration { return time.Duration(s.end - s.start) }

func layerMetrics(d traceData) layers {
	l := layers{service: make(map[uint8]float64), reconcileErr: d.reconcile()}
	var self [numOpKinds][]time.Duration
	var rtt, transit []time.Duration
	for _, op := range d.ops {
		contacts := d.contacts[op.id]
		s, _ := selfTime(op, contacts)
		self[op.name] = append(self[op.name], time.Duration(s))
		l.contacts += len(contacts)
		for _, c := range contacts {
			if c.end < 0 {
				l.unanswered++
				continue
			}
			rtt = append(rtt, spanDur(c))
			if svc, ok := d.services[c.call()]; ok {
				transit = append(transit, spanDur(c)-spanDur(*svc))
			}
		}
	}
	l.readSelf = us(percentile(self[opRead], 0.5))
	l.writeSelf = us(percentile(self[opWrite], 0.5))
	l.rttP50, l.rttP99 = us(percentile(rtt, 0.5)), us(percentile(rtt, 0.99))
	l.transit = us(percentile(transit, 0.5))
	byKind := make(map[uint8][]time.Duration)
	for _, s := range d.services {
		byKind[s.name] = append(byKind[s.name], spanDur(*s))
	}
	for k, xs := range byKind {
		l.service[k] = us(percentile(xs, 0.5))
	}
	return l
}

// reconcile checks that the trace accounts for every op. Each op sent at
// least one contact; each contact was answered, lies wholly inside its op
// (so the op's self time plus the union of its contacts is its duration,
// with nothing clipped) and was served by a replica service span; and
// replica service medians sit below the contact RTT medians of the same
// message kind. A layer that drops out of the trace fails one of these.
func (d traceData) reconcile() error {
	rtt := make(map[uint8][]time.Duration)
	svc := make(map[uint8][]time.Duration)
	for _, op := range d.ops {
		contacts := d.contacts[op.id]
		if len(contacts) == 0 {
			return fmt.Errorf("%s op %d has no contact spans", opKind(op.name), op.id)
		}
		for _, c := range contacts {
			switch {
			case c.end < 0:
				return fmt.Errorf("contact %d (%s to site %d, op %d) never matched a reply", c.id, msgNames[c.name], c.site, c.op)
			case c.start < op.start || c.end > op.end:
				return fmt.Errorf("op %d [%d, %d]: contact %d [%d, %d] lies outside it", op.id, op.start, op.end, c.id, c.start, c.end)
			}
			s, ok := d.services[c.call()]
			if !ok {
				return fmt.Errorf("contact %d (%s to site %d, op %d) has no replica service span", c.id, msgNames[c.name], c.site, c.op)
			}
			rtt[c.name] = append(rtt[c.name], spanDur(c))
			svc[c.name] = append(svc[c.name], spanDur(*s))
		}
	}
	for k := range rtt {
		if r, s := percentile(rtt[k], 0.5), percentile(svc[k], 0.5); s >= r {
			return fmt.Errorf("%s: replica service median %v not below contact RTT median %v", msgNames[k], s, r)
		}
	}
	return nil
}

// codecTiming times the binary codec over the captured message mix and
// returns ns per message for encode and decode.
func codecTiming(msgs []any) (encNs, decNs float64) {
	if len(msgs) == 0 {
		return 0, 0
	}
	codec := wire.Binary()
	encoded := make([][]byte, len(msgs))
	for i, m := range msgs {
		encoded[i], _ = codec.Encode(nil, m)
	}
	var buf []byte
	const minTime = 100 * time.Millisecond
	n := 0
	start := time.Now()
	for time.Since(start) < minTime {
		for _, m := range msgs {
			buf, _ = codec.Encode(buf[:0], m)
		}
		n += len(msgs)
	}
	encNs = float64(time.Since(start)) / float64(n)
	n = 0
	start = time.Now()
	for time.Since(start) < minTime {
		for _, b := range encoded {
			_, _ = codec.Decode(b)
		}
		n += len(encoded)
	}
	decNs = float64(time.Since(start)) / float64(n)
	return encNs, decNs
}

// walAppends is how many standalone appends walAppendTiming makes.
const walAppends = 200

// walAppendTiming appends walAppends records of the workload's size (key,
// 64-byte value) to a fresh journal in dir and returns the median append
// latency in µs. Each append fsyncs, as in the replicas.
func walAppendTiming(dir string) (float64, error) {
	tmp, err := os.MkdirTemp(dir, "walbench-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	wal, err := replica.OpenWAL(filepath.Join(tmp, "bench.wal"))
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	lat := make([]time.Duration, 0, walAppends)
	for i := 0; i < walAppends; i++ {
		k := i % numKeys
		v := writtenValue(0, uint64(i+1), k)
		start := time.Now()
		if err := wal.Append(keyName(k), v, replica.Timestamp{Version: uint64(i + 2), Site: -1}); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(start))
	}
	return us(percentile(lat, 0.5)), nil
}
