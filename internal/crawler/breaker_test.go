package crawler

import (
	"context"
	"fmt"
	"testing"
	"time"

	"swrec/internal/model"
	"swrec/internal/resilience"
	"swrec/internal/semweb"
)

// TestCrawlBreakerSuspendsDeadHost seeds many agents on an unreachable
// host: after the breaker's window fills with failures, the remaining
// fetches are rejected up front instead of burning a timeout each.
func TestCrawlBreakerSuspendsDeadHost(t *testing.T) {
	var in semweb.Internet // dead.example is not registered: every fetch fails
	seeds := make([]model.AgentID, 8)
	for i := range seeds {
		seeds[i] = model.AgentID(fmt.Sprintf("http://dead.example/people/a%d", i))
	}
	cr := &Crawler{
		Client:      in.Client(),
		Concurrency: 1, // deterministic outcome order
		MaxRetries:  -1,
		Breaker:     resilience.BreakerConfig{Window: 4, MinSamples: 4, OpenFor: time.Hour},
	}
	res, err := cr.Crawl(context.Background(), "", "", seeds)
	if err != nil {
		t.Fatal(err)
	}
	// First 4 failures fill the window and trip the breaker; the other 4
	// seeds are rejected without touching the network.
	if res.Stats.BreakerOpen != 4 {
		t.Fatalf("BreakerOpen = %d, want 4", res.Stats.BreakerOpen)
	}
	if res.Stats.Failed != len(seeds) {
		t.Fatalf("Failed = %d, want %d", res.Stats.Failed, len(seeds))
	}
	states := cr.BreakerStates()
	if states["dead.example"] != resilience.Open {
		t.Fatalf("breaker state = %v, want open", states["dead.example"])
	}
}
