package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestComputedFillsOnceAndDetaches drives the cache-or-compute path with
// a compute that blocks until released: concurrent misses on one key run
// it once and share its value, every joiner counts as flight_shared, a
// follower whose deadline fires detaches with ctx.Err() while the
// leader's value still lands in the cache, and a failed compute caches
// nothing.
func TestComputedFillsOnceAndDetaches(t *testing.T) {
	c := newComputed[int, *int](8, 0, peersHitStat, peersMissStat)
	var calls atomic.Int64
	release := make(chan struct{})
	want := new(int)
	compute := func(context.Context) (*int, error) {
		calls.Add(1)
		<-release
		return want, nil
	}
	get := func(ctx context.Context, key int) (*int, error) {
		if v, ok := c.lookup(key); ok {
			return v, nil
		}
		return c.fill(ctx, key, compute)
	}

	shared, misses := counter("flight_shared"), counter("peers_miss")
	const clients = 6
	got := make([]*int, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = get(context.Background(), 1); err != nil {
				t.Error(err)
			}
		}()
	}
	for counter("peers_miss") < misses+clients {
		time.Sleep(time.Millisecond) // every client has joined the flight
	}

	// A follower with a tight deadline leaves; the flight runs on.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if v, err := get(ctx, 1); !errors.Is(err, context.DeadlineExceeded) || v != nil {
		t.Fatalf("detached follower got (%v, %v), want (nil, DeadlineExceeded)", v, err)
	}
	if _, ok := c.get(1); ok {
		t.Fatal("value cached before its compute finished")
	}

	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d concurrent misses", n, clients+1)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("client %d got %p, want the flight's %p", i, v, want)
		}
	}
	if n := counter("flight_shared") - shared; n != clients {
		t.Fatalf("flight_shared grew by %d, want %d (every caller but the leader)", n, clients)
	}
	if v, ok := c.get(1); !ok || v != want {
		t.Fatal("the leader's value did not land in the cache")
	}

	// An error is returned to the caller and not cached.
	boom := errors.New("boom")
	if _, err := c.fill(context.Background(), 2, func(context.Context) (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.get(2); ok {
		t.Fatal("a failed compute was cached")
	}
}
