package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"swrec/internal/core"
	"swrec/internal/model"
)

// slowOptions returns pipeline options whose stage 1 is a Candidates hook
// that sleeps for d before returning every other agent — a deterministic
// stand-in for an expensive cold-path computation.
func slowOptions(comm *model.Community, d time.Duration) core.Options {
	opt := testOptions()
	agents := comm.Agents()
	opt.Candidates = func(active model.AgentID) []model.AgentID {
		time.Sleep(d)
		return agents
	}
	return opt
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of baseline, dumping stacks on timeout.
func waitGoroutines(t *testing.T, baseline, slack int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			k := runtime.Stack(buf, true)
			t.Fatalf("leaked goroutines: %d > baseline %d + slack %d\n%s", n, baseline, slack, buf[:k])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestColdPathDetachesOnDeadlineAndWarmsCache(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	const compute = 150 * time.Millisecond
	e, err := New(comm, slowOptions(comm, compute), Config{})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]
	snap := e.Snapshot()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = snap.RecommendCtx(ctx, active, 5, Overrides{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// ~2× the deadline, not the full compute time.
	if elapsed >= compute {
		t.Fatalf("detach took %v — caller blocked on the computation", elapsed)
	}

	// The detached flight keeps running and fills the cache.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := snap.CachedRecommend(active, 5, Overrides{}); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached flight never filled the result cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the next request with the same tight deadline is a warm hit.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := snap.RecommendCtx(ctx2, active, 5, Overrides{}); err != nil {
		t.Fatalf("warm request after detach: %v", err)
	}
}

func TestComputeBudgetBoundsDetachedFlight(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, slowOptions(comm, 80*time.Millisecond), Config{ComputeBudget: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]
	snap := e.Snapshot()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := snap.RecommendCtx(ctx, active, 5, Overrides{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The flight outlives the caller but dies at the compute budget, so
	// the cache must stay cold.
	time.Sleep(150 * time.Millisecond)
	if _, ok := snap.CachedPeers(active, Overrides{}); ok {
		t.Fatal("budget-killed flight must not fill the peers cache")
	}
	if _, ok := snap.CachedRecommend(active, 5, Overrides{}); ok {
		t.Fatal("budget-killed flight must not fill the result cache")
	}
}

func TestFollowerDetachesIndependentlyOfLeader(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, slowOptions(comm, 100*time.Millisecond), Config{})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]
	snap := e.Snapshot()

	// Leader with a generous deadline.
	leaderDone := make(chan error, 1)
	go func() {
		_, err := snap.RecommendCtx(context.Background(), active, 5, Overrides{})
		leaderDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the leader start the flight

	// Follower with a tight deadline must detach while the leader waits on.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := snap.RecommendCtx(ctx, active, 5, Overrides{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader err = %v, want success", err)
	}
}

// TestStaggeredDeadlinesRacingSwapNoLeaks is the cold-path cancellation
// race test: N concurrent requests with staggered deadlines race a Swap,
// and after the dust settles no goroutine may linger.
func TestStaggeredDeadlinesRacingSwapNoLeaks(t *testing.T) {
	comm := testCommunity(t, 24, 30)
	const compute = 40 * time.Millisecond
	e, err := New(comm, slowOptions(comm, compute), Config{})
	if err != nil {
		t.Fatal(err)
	}
	agents := comm.Agents()

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i, id := range agents {
		wg.Add(1)
		go func(i int, id model.AgentID) {
			defer wg.Done()
			// Deadlines from 1ms (detaches) to ~50ms (may complete).
			d := time.Duration(1+2*i) * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), d)
			defer cancel()
			snap := e.Snapshot()
			_, err := snap.RecommendCtx(ctx, id, 5, Overrides{})
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("agent %s: %v", id, err)
			}
		}(i, id)
	}
	// Swap mid-flight: pinned snapshots must keep their flights; new
	// requests land on the fresh epoch.
	time.Sleep(5 * time.Millisecond)
	if _, err := e.Swap(testCommunity(t, 24, 30)); err != nil {
		t.Fatalf("swap: %v", err)
	}
	wg.Wait()

	// Detached flights drain once their sleeps elapse; then nothing may
	// be left over.
	waitGoroutines(t, baseline, 3, 10*time.Second)
}

func TestDegradedRecommendProbesCurrentCaches(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]

	// Nothing warm: no degraded answer exists.
	if _, _, _, ok := e.degradedRecommend(active, 5, Overrides{}); ok {
		t.Fatal("degraded answer from fully cold caches")
	}

	// Warm the neighborhood only: the probe votes over the cached peers.
	if _, err := e.Snapshot().RankedPeers(active, Overrides{}); err != nil {
		t.Fatal(err)
	}
	recs, source, epoch, ok := e.degradedRecommend(active, 5, Overrides{})
	if !ok || source != "peers-vote" || epoch != e.Epoch() {
		t.Fatalf("ok=%v source=%q epoch=%d, want peers-vote at current epoch", ok, source, epoch)
	}
	full, err := e.Snapshot().Recommend(active, 5, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(full) {
		t.Fatalf("degraded vote gave %d recs, full pipeline %d", len(recs), len(full))
	}

	// With the result cache warm the probe prefers it.
	_, source, _, ok = e.degradedRecommend(active, 5, Overrides{})
	if !ok || source != "result-cache" {
		t.Fatalf("ok=%v source=%q, want result-cache", ok, source)
	}
}

func TestDegradedRecommendFallsBackToPreviousEpoch(t *testing.T) {
	comm := testCommunity(t, 20, 30)
	e, err := New(comm, testOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	active := comm.Agents()[0]
	if _, err := e.Snapshot().Recommend(active, 5, Overrides{}); err != nil {
		t.Fatal(err)
	}
	oldEpoch := e.Epoch()

	// Swap installs a cold epoch; the only warmth left is the old one.
	if _, err := e.Swap(testCommunity(t, 20, 30)); err != nil {
		t.Fatal(err)
	}
	recs, source, epoch, ok := e.degradedRecommend(active, 5, Overrides{})
	if !ok || source != "prev-result-cache" || epoch != oldEpoch {
		t.Fatalf("ok=%v source=%q epoch=%d, want prev-result-cache at epoch %d", ok, source, epoch, oldEpoch)
	}
	if len(recs) == 0 {
		t.Fatal("stale degraded answer is empty")
	}

	// Peers fallback too.
	peers, source, epoch, ok := e.degradedPeers(active, Overrides{})
	if !ok || source != "prev-peers-cache" || epoch != oldEpoch {
		t.Fatalf("peers: ok=%v source=%q epoch=%d", ok, source, epoch)
	}
	if len(peers) == 0 {
		t.Fatal("stale degraded peers empty")
	}
}
