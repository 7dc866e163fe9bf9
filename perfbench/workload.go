package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Fixed input shape shared by every workload.
const (
	numKeys    = 4096 // preloaded keyspace; reads are uniform over it
	valueSize  = 64   // bytes per value
	numClients = 2    // closed-loop clients, one op in flight each
)

// workload is one traffic mix over one stack configuration.
type workload struct {
	name string
	spec string // tree spec (tree.ParseSpec notation)
	// Op mix in percent; read+write+txn = 100.
	readPct, writePct, txnPct int
	tcp                       bool // loopback TCPNetwork with the binary codec instead of the in-memory Network
	wal                       bool // per-site write-ahead journal, fsync on every append
	// hedgeDelay overrides the client's hedge delay (timeout/8) when set.
	hedgeDelay time.Duration
	// crashOne crashes the first site of the last physical level after
	// preload, before warm-up.
	crashOne bool
	why      string
}

// workloads is the benchmark's table. Each row exercises a different layer
// mix, so a change to one layer moves one row and leaves another as a
// control that should not move.
var workloads = []workload{
	{
		name: "read-mostly", spec: "1-4-4-4-4-4-4-4-36",
		readPct: 95, writePct: 5,
		why: "every read fans out to 8 physical levels: client engine and replica read handler dominate; bypasses wal and wire",
	},
	{
		name: "write-wal", spec: "1-3-5",
		readPct: 20, writePct: 70, txnPct: 10, wal: true,
		why: "2PC to a whole level with a durable WAL: append+fsync per replica dominates; reads show what write-path changes cost them",
	},
	{
		name: "mixed-tcp", spec: "1-3-5",
		readPct: 50, writePct: 50, tcp: true,
		why: "same engine as read-mostly but every message pays wire encode/decode, framing and a socket syscall",
	},
	{
		name: "degraded-read", spec: "1-4-4-4-4-4-4-4-36",
		readPct: 90, writePct: 10,
		// The client's default 250 ms timeout, not a tighter one: on a host
		// whose vCPUs stall for 100 ms and more (hypervisor steal), 40 and
		// 100 ms timeouts expired on live sites and failed ops, and this
		// workload must fail none. The 5 ms hedge delay still runs the
		// hedge path on every probe of the crashed site. The tree is
		// read-mostly's, not 1-3-5: on 1-3-5 the ops are so short (read
		// p50 ~14 us) that their p90s varied from run to run by up to a
		// third of their median, against 4-7% here.
		hedgeDelay: 5 * time.Millisecond, crashOne: true,
		why: "one site of the 36-site level down: probes of it are hedged after 5 ms; the timeout, breaker, rescue and level-fallback paths stand armed",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// describe renders the workload record printed at the start of every run.
func (w workload) describe() string {
	transport := "in-memory Network (no injected message delay: latency is processor time only)"
	if w.tcp {
		transport = "loopback TCPNetwork, binary codec"
	}
	wal := "off"
	if w.wal {
		wal = "on, one journal per site in a temp dir on the local disk, fsync on every append"
	}
	timeout := "client defaults (timeout 250ms, hedge delay timeout/8)"
	if w.hedgeDelay > 0 {
		timeout = fmt.Sprintf("client timeout 250ms, hedge delay %v", w.hedgeDelay)
	}
	fault := "none"
	if w.crashOne {
		fault = "first site of the last physical level crashed after preload"
	}
	return fmt.Sprintf("workload %s: tree %s; mix %d%% read / %d%% write / %d%% two-key txn; %d keys x %d B values; "+
		"%d closed-loop clients; transport %s; WAL %s; %s; fault %s; why: %s",
		w.name, w.spec, w.readPct, w.writePct, w.txnPct, numKeys, valueSize, numClients,
		transport, wal, timeout, fault, w.why)
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opTxn
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"read", "write", "txn"}[k]
}

// op is one generated operation. A write touches keys[0]; a txn writes
// keys[0] and keys[1] atomically. seq numbers a client's ops from 1 and is
// encoded in every value the op writes.
type op struct {
	kind opKind
	keys [2]int
	seq  uint64
}

// opStream is one client's operation sequence. It depends only on the
// workload name, the seed and the client index, so two commits run with
// the same seed see the same ops in the same order.
type opStream struct {
	w      workload
	client int
	rng    *rand.Rand
	seq    uint64
}

func newOpStream(w workload, seed int64, client int) *opStream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", w.name, seed, client)
	return &opStream{w: w, client: client, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// ownedKey draws a key the stream's client owns (key ≡ client mod
// numClients): writers never share keys, so write-write conflicts cannot
// happen and any failed write is a defect.
func (s *opStream) ownedKey() int {
	return s.rng.Intn(numKeys/numClients)*numClients + s.client
}

func (s *opStream) next() op {
	s.seq++
	o := op{seq: s.seq}
	switch p := s.rng.Intn(100); {
	case p < s.w.readPct:
		o.kind = opRead
		o.keys[0] = s.rng.Intn(numKeys)
	case p < s.w.readPct+s.w.writePct:
		o.kind = opWrite
		o.keys[0] = s.ownedKey()
	default:
		o.kind = opTxn
		o.keys[0] = s.ownedKey()
		for o.keys[1] = s.ownedKey(); o.keys[1] == o.keys[0]; o.keys[1] = s.ownedKey() {
		}
	}
	return o
}

func keyName(k int) string { return fmt.Sprintf("k%04d", k) }

// writtenValue is the value client writes to key by its op seq. It encodes
// all three, so a read can say who wrote what it returned.
func writtenValue(client int, seq uint64, key int) []byte {
	return pad(fmt.Sprintf("w %d %d %d ", client, seq, key))
}

// preloadValue is the value every key holds before any client writes it.
func preloadValue(key int) []byte { return pad(fmt.Sprintf("p 0 0 %d ", key)) }

func pad(s string) []byte {
	b := make([]byte, valueSize)
	copy(b, s)
	for i := len(s); i < valueSize; i++ {
		b[i] = '.'
	}
	return b
}

// parsedValue is a decoded value: preload, or a client's write.
type parsedValue struct {
	preload bool
	client  int
	seq     uint64
	key     int
}

func parseValue(v []byte) (parsedValue, error) {
	if len(v) != valueSize {
		return parsedValue{}, fmt.Errorf("value of %d bytes, want %d", len(v), valueSize)
	}
	f := strings.Fields(strings.TrimRight(string(v), "."))
	if len(f) != 4 || (f[0] != "w" && f[0] != "p") {
		return parsedValue{}, fmt.Errorf("malformed value %q", v)
	}
	client, err1 := strconv.Atoi(f[1])
	seq, err2 := strconv.ParseUint(f[2], 10, 64)
	key, err3 := strconv.Atoi(f[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return parsedValue{}, fmt.Errorf("malformed value %q", v)
	}
	return parsedValue{preload: f[0] == "p", client: client, seq: seq, key: key}, nil
}
