package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// keyState is what the benchmark knows about one key's writes. Only the
// key's owner writes it; every client reads it.
type keyState struct {
	issued atomic.Uint64 // seq of the latest write sent (0 = none)
	acked  atomic.Uint64 // seq of the latest acknowledged write (0 = preload only)
	doubt  atomic.Bool   // some write to the key failed, so its outcome is unknown
}

// stack is one running arbor deployment wired layer by layer, the way
// examples/tcpcluster does it: transport → replicas (+ WAL) → clients.
type stack struct {
	w        workload
	proto    *core.Protocol
	tr       transport.Transport
	replicas map[tree.SiteID]*replica.Replica
	wals     []*replica.WAL
	walDir   string
	clients  []*client.Client
	keys     []keyState
	names    []string
	// keyWrites counts key writes sent (a txn writes two keys).
	keyWrites atomic.Int64

	// Set only on a traced stack.
	tracer   *tracer
	reg      *obs.Registry
	tconns   []*tracedConn // client-side wrappers, index = client
	allConns []*tracedConn
}

// preloadTS stamps the preloaded values; every client write supersedes it.
var preloadTS = replica.Timestamp{Version: 1, Site: 0}

// buildStack starts the replicas, preloads every key directly into every
// store (before any journal is attached, so preload is not journaled),
// attaches WALs, applies the workload's fault and attaches the clients.
// With tr non-nil every endpoint is wrapped in a timing decorator and the
// clients and replicas report into a fresh metrics registry.
func buildStack(w workload, seed int64, dir string, tr *tracer) (*stack, error) {
	t, err := tree.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	proto, err := core.New(t)
	if err != nil {
		return nil, err
	}
	s := &stack{
		w: w, proto: proto, tracer: tr,
		replicas: make(map[tree.SiteID]*replica.Replica),
		keys:     make([]keyState, numKeys),
		names:    make([]string, numKeys),
	}
	for k := range s.names {
		s.names[k] = keyName(k)
	}
	if w.tcp {
		s.tr = transport.NewTCPNetwork()
	} else {
		s.tr = transport.NewNetwork()
	}
	var ropts []replica.Option
	var copts []client.Option
	if tr != nil {
		s.reg = obs.NewRegistry()
		ropts = append(ropts, replica.WithObserver(s.reg))
		copts = append(copts, client.WithObserver(&obs.Observer{Registry: s.reg}))
	}
	if w.hedgeDelay > 0 {
		copts = append(copts, client.WithHedgeDelay(w.hedgeDelay))
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
			s.removeWALs()
		}
	}()

	for _, site := range t.Sites() {
		conn, err := s.tr.Listen(transport.Addr(site))
		if err != nil {
			return nil, err
		}
		r := replica.New(int(site), s.wrap(conn, false), ropts...)
		s.replicas[site] = r
		for k, name := range s.names {
			r.Store().Apply(name, preloadValue(k), preloadTS)
		}
	}
	if w.wal {
		if s.walDir, err = os.MkdirTemp(dir, "wal-"); err != nil {
			return nil, err
		}
		for _, site := range t.Sites() {
			wal, err := replica.OpenWAL(filepath.Join(s.walDir, fmt.Sprintf("site-%d.wal", site)))
			if err != nil {
				return nil, err
			}
			s.wals = append(s.wals, wal)
			s.replicas[site].Store().AttachJournal(wal)
		}
	}
	for _, r := range s.replicas {
		r.Start()
	}
	if w.crashOne {
		last := proto.NumPhysicalLevels() - 1
		s.replicas[proto.LevelSites(last)[0]].Crash()
	}
	for i := 0; i < numClients; i++ {
		id := -(i + 1)
		conn, err := s.tr.Dial(transport.Addr(id))
		if err != nil {
			return nil, err
		}
		wrapped := s.wrap(conn, true)
		if tr != nil {
			s.tconns = append(s.tconns, wrapped.(*tracedConn))
		}
		opts := append([]client.Option{client.WithSeed(seed*numClients + int64(i))}, copts...)
		s.clients = append(s.clients, client.New(id, wrapped, proto, opts...))
	}
	ok = true
	return s, nil
}

// wrap decorates conn with the tracer's timing wrapper on a traced stack.
func (s *stack) wrap(conn transport.Conn, isClient bool) transport.Conn {
	if s.tracer == nil {
		return conn
	}
	tc := newTracedConn(s.tracer, conn, isClient)
	s.allConns = append(s.allConns, tc)
	return tc
}

// close stops clients, replicas, wrappers and the transport, then closes
// the journals. The WAL files stay for the durability check.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	for _, r := range s.replicas {
		r.Stop()
	}
	for _, tc := range s.allConns {
		tc.stop()
	}
	if s.tr != nil {
		s.tr.Close()
	}
	for _, w := range s.wals {
		_ = w.Close() // best-effort: every append already fsynced
	}
}

func (s *stack) removeWALs() {
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// checkDurability replays every site's journal into a fresh store and
// checks that each key's last acknowledged write is on every site of at
// least one physical level. Call after close.
func (s *stack) checkDurability() error {
	stores := make(map[tree.SiteID]*replica.Store)
	for site := range s.replicas {
		st := replica.NewStore()
		path := filepath.Join(s.walDir, fmt.Sprintf("site-%d.wal", site))
		if _, err := replica.ReplayWAL(path, st); err != nil {
			return err
		}
		stores[site] = st
	}
	missing := 0
	var first string
	for k := range s.keys {
		acked := s.keys[k].acked.Load()
		if acked == 0 {
			continue
		}
		if !s.durableOnSomeLevel(stores, k, acked) {
			if missing == 0 {
				first = fmt.Sprintf("%s (acked seq %d)", s.names[k], acked)
			}
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("durability: %d acked writes not on every site of any level after WAL replay, first %s", missing, first)
	}
	return nil
}

func (s *stack) durableOnSomeLevel(stores map[tree.SiteID]*replica.Store, k int, acked uint64) bool {
	for u := 0; u < s.proto.NumPhysicalLevels(); u++ {
		all := true
		for _, site := range s.proto.LevelSites(u) {
			v, _, found := stores[site].Get(s.names[k])
			if !found {
				all = false
				break
			}
			pv, err := parseValue(v)
			if err != nil || pv.preload || pv.key != k || pv.seq < acked {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// walStats returns the records and bytes every site's journal holds.
func (s *stack) walStats() (records, bytes int64, err error) {
	for site := range s.replicas {
		path := filepath.Join(s.walDir, fmt.Sprintf("site-%d.wal", site))
		n, err := replica.ReplayWAL(path, replica.NewStore())
		if err != nil {
			return 0, 0, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return 0, 0, err
		}
		records += int64(n)
		bytes += fi.Size()
	}
	return records, bytes, nil
}
