// The race detector drops a share of sync.Pool puts on purpose and adds
// allocations of its own, so allocation counts mean nothing under -race.

//go:build !race

package arbor_test

import (
	"context"
	"testing"
)

// readAllocBudget bounds the allocations of one warm read on the 1-3-5
// cluster, counted across the whole process (client, dispatcher and
// replicas) like BenchmarkClusterRead's allocs/op. A read orders its
// candidate sites and collects its replies in per-operation buffers reused
// from a pool, so what is left is per contact (the rpc call, the request
// and reply messages) and per operation (context, trace and result). Site
// ordering that allocated per level per read, or a reply timer per call,
// breaks the budget.
const readAllocBudget = 16

func TestClusterReadAllocBudget(t *testing.T) {
	_, cli := benchCluster(t, "1-3-5")
	ctx := context.Background()
	if _, err := cli.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := cli.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools and the site scores
		read()
	}
	if allocs := testing.AllocsPerRun(500, read); allocs > readAllocBudget {
		t.Errorf("a warm read allocates %.1f times, budget %d", allocs, readAllocBudget)
	}
}
