package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

// TestHedgedProbesNoGoroutineLeak drives a warm hedging client against a
// cluster with one crashed site per level — every read launches and then
// cancels loser probes — and checks the goroutine count returns to baseline
// after Close. A leaked prober (or a reply-channel write after return)
// would hold the count up.
func TestHedgedProbesNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(tr, WithSeed(1), WithClientTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewClient(client.WithHedgeDelay(2 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // warm every level's latency estimate
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	proto := c.Protocol()
	for u := 0; u < proto.NumPhysicalLevels(); u++ {
		if err := c.Crash(proto.LevelSites(u)[0]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatalf("read %d during outage: %v", i, err)
		}
	}
	c.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: baseline %d, after close %d", baseline, runtime.NumGoroutine())
}

// TestEngineDeterministicUnderSeed runs the same workload against two
// identically seeded clusters with hedging enabled and requires identical
// write-level and read-contact sequences, and identical sets of sites
// contacted by every operation: the engine's rng-driven choices (level
// rotation, shuffles, exploration draws) must stay reproducible however
// the replies of a read's levels interleave. Each operation's contacts are
// compared sorted, because a trace records them in completion order, which
// is timing-dependent by design. The hedge delay is set high so the
// comparison covers the engine's decision stream, not wall-clock race
// outcomes.
func TestEngineDeterministicUnderSeed(t *testing.T) {
	const writes, reads = 20, 200
	run := func() []string {
		tr, err := tree.ParseSpec("1-4-4-4-4")
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(tr, WithSeed(9), WithClientTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		o := obs.NewObserver(writes + reads)
		cli, err := c.NewClient(client.WithHedgeDelay(50*time.Millisecond), client.WithObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var log []string
		for i := 0; i < writes; i++ {
			wr, err := cli.Write(ctx, fmt.Sprintf("k%d", i%3), []byte("v"))
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("w:%d", wr.Level))
		}
		for i := 0; i < reads; i++ {
			rd, err := cli.Read(ctx, fmt.Sprintf("k%d", i%3))
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, fmt.Sprintf("r:%d:%s", rd.Contacts, rd.Value))
		}
		for _, op := range o.Rec().Last(writes + reads) {
			var contacts []string
			for _, a := range op.Attempts {
				for _, sc := range a.Contacts {
					contacts = append(contacts, fmt.Sprintf("%d/%d/%s", a.Level, sc.Site, sc.Phase))
				}
			}
			sort.Strings(contacts)
			log = append(log, fmt.Sprintf("%s %s: %s", op.Op, op.Key, strings.Join(contacts, " ")))
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("logs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverges: %q vs %q", i, a[i], b[i])
		}
	}
}
