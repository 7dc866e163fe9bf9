package main

import (
	"bytes"
	"testing"
	"time"
)

func ops(w workload, seed int64, client, n int) []op {
	s := newOpStream(w, seed, client)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// TestOpStreamSeeded checks that the op stream is a function of the seed,
// workload and client alone: one seed gives an identical stream, another
// seed a different one, and every write goes to a key the client owns.
func TestOpStreamSeeded(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < numClients; c++ {
			a, b := ops(w, 7, c, 2000), ops(w, 7, c, 2000)
			other := ops(w, 8, c, 2000)
			same, diff := true, false
			for i := range a {
				same = same && a[i] == b[i]
				diff = diff || a[i] != other[i]
				if !bytes.Equal(writtenValue(c, a[i].seq, a[i].keys[0]), writtenValue(c, b[i].seq, b[i].keys[0])) {
					same = false
				}
				if a[i].kind == opRead {
					continue
				}
				n := 1
				if a[i].kind == opTxn {
					n = 2
					if a[i].keys[0] == a[i].keys[1] {
						t.Fatalf("%s client %d op %d: txn writes one key twice", w.name, c, i)
					}
				}
				for _, k := range a[i].keys[:n] {
					if k%numClients != c {
						t.Fatalf("%s client %d op %d: writes key %d it does not own", w.name, c, i, k)
					}
				}
			}
			if !same {
				t.Errorf("%s client %d: seed 7 gave two different streams", w.name, c)
			}
			if !diff {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", w.name, c)
			}
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	pv, err := parseValue(writtenValue(1, 12345, 4093))
	if err != nil || pv.preload || pv.client != 1 || pv.seq != 12345 || pv.key != 4093 {
		t.Fatalf("written value parsed as %+v, %v", pv, err)
	}
	pv, err = parseValue(preloadValue(17))
	if err != nil || !pv.preload || pv.key != 17 {
		t.Fatalf("preload value parsed as %+v, %v", pv, err)
	}
	if _, err := parseValue([]byte("short")); err == nil {
		t.Fatal("short value parsed")
	}
}

// TestTraceReconciles runs a short traced read-mostly workload and checks
// the trace accounts for every op: each op sent contacts, each contact
// matched a reply, lies inside its op and was served by a replica, and
// replica service medians sit below contact RTT medians. It then drops or
// damages one layer's spans at a time and checks reconcile catches it.
func TestTraceReconciles(t *testing.T) {
	w, _ := findWorkload("read-mostly")
	tr := newTracer()
	p, err := setupPhase(w, 1, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.on.Store(true)
	p.run(300*time.Millisecond, 0)
	tr.on.Store(false)
	for _, tc := range p.s.tconns {
		tc.flushUnmatched()
	}
	p.finish()
	if p.total.nviol != 0 || p.total.totalFailed() != 0 {
		t.Fatalf("output check failed: %d failed ops, %v", p.total.totalFailed(), p.total.violations)
	}
	d := tr.join()
	reads := 0
	levels := p.s.proto.NumPhysicalLevels()
	for _, op := range d.ops {
		// Every read fans out to at least one site per physical level.
		if cs := d.contacts[op.id]; op.name == uint8(opRead) {
			reads++
			if len(cs) < levels {
				t.Errorf("read op %d has %d contacts, want >= %d", op.id, len(cs), levels)
			}
		}
	}
	if reads == 0 || len(d.services) == 0 {
		t.Fatalf("trace too thin: %d ops (%d reads), %d service spans", len(d.ops), reads, len(d.services))
	}
	if err := d.reconcile(); err != nil {
		t.Fatal(err)
	}

	victim := d.ops[len(d.ops)/2].id
	damaged := func(fn func(d *traceData, cs []span)) traceData {
		c := traceData{ops: d.ops, contacts: make(map[uint64][]span), services: d.services}
		for id, cs := range d.contacts {
			c.contacts[id] = append([]span(nil), cs...)
		}
		fn(&c, c.contacts[victim])
		return c
	}
	cases := map[string]traceData{
		"contact spans dropped": damaged(func(d *traceData, _ []span) { delete(d.contacts, victim) }),
		"service spans dropped": damaged(func(d *traceData, _ []span) { d.services = map[callKey]*span{} }),
		"reply lost":            damaged(func(_ *traceData, cs []span) { cs[0].end = -1 }),
		"contact outlives op":   damaged(func(_ *traceData, cs []span) { cs[0].end += int64(time.Second) }),
		"contact precedes op":   damaged(func(_ *traceData, cs []span) { cs[0].start -= int64(time.Second) }),
	}
	for name, bad := range cases {
		if err := bad.reconcile(); err == nil {
			t.Errorf("%s: reconcile passed", name)
		}
	}
}

// TestSelfTime pins the interval arithmetic: overlapping and clipped
// contacts are counted once, and an unanswered contact covers the op to
// its end.
func TestSelfTime(t *testing.T) {
	op := span{start: 100, end: 200}
	contacts := []span{
		{start: 110, end: 130},
		{start: 120, end: 140}, // overlaps the first
		{start: 150, end: 160},
		{start: 190, end: 400}, // answered after the op ended
	}
	if self, covered := selfTime(op, contacts); covered != 30+10+10 || self != 50 {
		t.Fatalf("self %d covered %d, want 50 and 50", self, covered)
	}
	contacts = append(contacts, span{start: 170, end: -1})
	if self, covered := selfTime(op, contacts); covered != 30+10+30 || self != 30 {
		t.Fatalf("with unanswered contact: self %d covered %d, want 30 and 70", self, covered)
	}
}
