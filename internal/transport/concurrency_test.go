package transport

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSendConcurrentWithRouteChanges runs senders against Register,
// Partition, Heal and Close. Sends read the routing snapshot without a
// lock, so the test pins what that must still guarantee: a send made
// entirely while address 1 is partitioned away never reaches it, every
// send that starts after Close has returned fails with ErrClosed, and once
// the network is quiet every counted send was delivered or dropped.
func TestSendConcurrentWithRouteChanges(t *testing.T) {
	n := NewNetwork()
	isolated, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	type tag struct{ sender, seq int }

	// cut is odd while the partition is in force: it is bumped after
	// Partition returns and before Heal is called.
	var cut atomic.Uint64
	var closed atomic.Bool
	stop := make(chan struct{})
	got := make(chan map[tag]bool)
	go func() {
		seen := make(map[tag]bool)
		for {
			select {
			case msg := <-isolated.Recv():
				seen[msg.Payload.(tag)] = true
			case <-stop:
				for {
					select {
					case msg := <-isolated.Recv():
						seen[msg.Payload.(tag)] = true
					default:
						got <- seen
						return
					}
				}
			}
		}
	}()

	const senders, afterClose = 4, 100
	forbidden := make([][]tag, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Register(Addr(10 + s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i, late := 0, 0; late < afterClose; i++ {
				// Odd sends go to 2 or to addresses registered while the
				// senders run (unknown until then).
				to := Addr(1)
				if i%2 == 1 {
					to = []Addr{2, 100, 101, 102}[i/2%4]
				}
				wasClosed, before := closed.Load(), cut.Load()
				err := ep.Send(to, tag{s, i})
				if wasClosed {
					late++
					if !errors.Is(err, ErrClosed) {
						t.Errorf("send after Close returned: err = %v, want ErrClosed", err)
						return
					}
				}
				if to == 1 && before%2 == 1 && cut.Load() == before {
					forbidden[s] = append(forbidden[s], tag{s, i})
				}
			}
		}(s)
	}

	for r := 0; r < 50; r++ {
		n.Partition([]Addr{1})
		cut.Add(1)
		for i := 0; i < 3; i++ {
			if _, err := n.Register(Addr(100 + 3*r + i)); err != nil {
				t.Fatal(err)
			}
		}
		cut.Add(1)
		n.Heal()
	}
	n.Close()
	closed.Store(true)
	wg.Wait()
	close(stop)
	seen := <-got

	cutOff := 0
	for _, tags := range forbidden {
		cutOff += len(tags)
		for _, tg := range tags {
			if seen[tg] {
				t.Errorf("send %+v made while partitioned was delivered across the partition", tg)
			}
		}
	}
	if cutOff == 0 {
		t.Log("no send fell wholly inside a partition interval this run")
	}
	if st := n.Stats(); st.Sent != st.Delivered+st.Dropped {
		t.Errorf("quiet network: Sent %d != Delivered %d + Dropped %d", st.Sent, st.Delivered, st.Dropped)
	}
}

// TestSeededDropsReplay: two networks with the same seed drop the same
// messages of the same send sequence, even while routing changes on
// unrelated addresses run alongside (they take no RNG draws).
func TestSeededDropsReplay(t *testing.T) {
	const sends = 2000
	delivered := func() []int {
		n := NewNetwork(WithSeed(42), WithDropProbability(0.3), WithBufferSize(sends))
		defer n.Close()
		a, _ := n.Register(1)
		b, _ := n.Register(2)
		done := make(chan struct{})
		churned := make(chan struct{})
		go func() {
			defer close(churned)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				n.Partition([]Addr{Addr(1000 + i)})
				_, _ = n.Register(Addr(1000 + i))
				n.Heal()
			}
		}()
		for i := 0; i < sends; i++ {
			if err := a.Send(2, i); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		<-churned
		var out []int
		for len(b.Recv()) > 0 {
			out = append(out, (<-b.Recv()).Payload.(int))
		}
		return out
	}
	first, second := delivered(), delivered()
	if len(first) == 0 || len(first) == sends {
		t.Fatalf("%d of %d delivered at drop probability 0.3", len(first), sends)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same seed, different drops: %d vs %d delivered", len(first), len(second))
	}
}
