package loadgen

import (
	"context"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"swrec/internal/metrics"
)

// The executor is the one place in the deterministic harness that may
// read the wall clock: pacing and latency measurement are its job.
// Everything that shapes the traffic (the plan) is clock-free, which is
// what keeps the event sequence reproducible.
//
//nolint:detrand -- latency measurement and open-loop pacing are inherently wall-clock
func wallNow() time.Time { return time.Now() }

// EndpointStats aggregates one endpoint series.
type EndpointStats struct {
	Hist          metrics.Histogram
	Statuses      map[int]uint64
	TransportErrs uint64
}

// Ack records one durably acknowledged write (202 + WAL sequence).
type Ack struct {
	EventIdx int
	Seq      uint64
}

// RunResult is the measured outcome of one executed plan.
type RunResult struct {
	Wall      time.Duration
	Completed int
	Endpoints map[string]*EndpointStats
	// Rungs records latency per answering strategy rung, keyed by the
	// procedure name the response provenance block reported.
	Rungs map[string]*metrics.Histogram
	Acked []Ack
	// RetryAfterMin/Max bracket every Retry-After value seen on 503s
	// (both 0 when none were).
	RetryAfterMin, RetryAfterMax int
	Overloaded                   uint64
}

// workerStats is the per-worker accumulator; merged after the run so
// the hot path takes no locks.
type workerStats struct {
	endpoints map[string]*EndpointStats
	rungs     map[string]*metrics.Histogram
	acked     []Ack
	raMin     int
	raMax     int
	overload  uint64
}

func newWorkerStats() *workerStats {
	return &workerStats{
		endpoints: make(map[string]*EndpointStats),
		rungs:     make(map[string]*metrics.Histogram),
	}
}

func (ws *workerStats) endpoint(name string) *EndpointStats {
	st := ws.endpoints[name]
	if st == nil {
		st = &EndpointStats{Statuses: make(map[int]uint64)}
		ws.endpoints[name] = st
	}
	return st
}

// provenance is the slice of the response envelope the harness reads
// to attribute latency to a strategy rung.
type provenance struct {
	Strategy *struct {
		Procedure string `json:"procedure"`
	} `json:"strategy"`
	Seq uint64 `json:"seq"`
}

func laddered(ep string) bool {
	return ep == EpRecommendations || ep == EpNeighbors
}

// Runner executes a plan against a target.
type Runner struct {
	Scenario *Scenario
	Plan     []Event
	Resolver *Resolver
	Target   Target
}

// Run drives the plan to completion (or ctx cancellation) and returns
// the merged measurements. Closed-loop pacing measures service time;
// open-loop measures from each event's scheduled arrival, so executor
// backlog counts against the SLO exactly as client queueing would in
// production.
func (r *Runner) Run(ctx context.Context) (*RunResult, error) {
	w := r.Scenario.Workload
	workers := w.Concurrency
	if workers < 1 {
		workers = 1
	}

	type timedEvent struct {
		ev        *Event
		scheduled time.Time
	}

	var (
		wg      sync.WaitGroup
		all     = make([]*workerStats, workers)
		next    atomic.Int64
		feed    chan timedEvent
		started = wallNow()
	)

	open := w.Pacing == "open"
	if open {
		feed = make(chan timedEvent, 4*workers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(feed)
			for i := range r.Plan {
				ev := &r.Plan[i]
				sched := started.Add(ev.At)
				if d := sched.Sub(wallNow()); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				select {
				case feed <- timedEvent{ev: ev, scheduled: sched}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	var completed atomic.Int64
	for wi := 0; wi < workers; wi++ {
		ws := newWorkerStats()
		all[wi] = ws
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var te timedEvent
				if open {
					var ok bool
					select {
					case te, ok = <-feed:
						if !ok {
							return
						}
					case <-ctx.Done():
						return
					}
				} else {
					if ctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(r.Plan) {
						return
					}
					te = timedEvent{ev: &r.Plan[i], scheduled: wallNow()}
				}
				r.execute(te.ev, te.scheduled, ws)
				completed.Add(1)
			}
		}()
	}
	wg.Wait()

	res := &RunResult{
		Wall:      wallNow().Sub(started),
		Completed: int(completed.Load()),
		Endpoints: make(map[string]*EndpointStats),
		Rungs:     make(map[string]*metrics.Histogram),
	}
	for _, ws := range all {
		for name, st := range ws.endpoints {
			dst := res.Endpoints[name]
			if dst == nil {
				dst = &EndpointStats{Statuses: make(map[int]uint64)}
				res.Endpoints[name] = dst
			}
			dst.Hist.Merge(&st.Hist)
			dst.TransportErrs += st.TransportErrs
			for code, n := range st.Statuses {
				dst.Statuses[code] += n
			}
		}
		for rung, h := range ws.rungs {
			dst := res.Rungs[rung]
			if dst == nil {
				dst = new(metrics.Histogram)
				res.Rungs[rung] = dst
			}
			dst.Merge(h)
		}
		res.Acked = append(res.Acked, ws.acked...)
		res.Overloaded += ws.overload
		if ws.raMin > 0 && (res.RetryAfterMin == 0 || ws.raMin < res.RetryAfterMin) {
			res.RetryAfterMin = ws.raMin
		}
		if ws.raMax > res.RetryAfterMax {
			res.RetryAfterMax = ws.raMax
		}
	}
	return res, ctx.Err()
}

func (r *Runner) execute(ev *Event, scheduled time.Time, ws *workerStats) {
	method, path, body := r.Resolver.Request(ev)
	status, resp, retryAfter, err := r.Target.Do(method, path, body)
	lat := wallNow().Sub(scheduled)

	st := ws.endpoint(ev.Endpoint)
	st.Hist.Record(lat)
	if err != nil {
		st.TransportErrs++
		return
	}
	st.Statuses[status]++

	switch {
	case status == 200 && laddered(ev.Endpoint):
		var p provenance
		if json.Unmarshal(resp, &p) == nil && p.Strategy != nil && p.Strategy.Procedure != "" {
			h := ws.rungs[p.Strategy.Procedure]
			if h == nil {
				h = new(metrics.Histogram)
				ws.rungs[p.Strategy.Procedure] = h
			}
			h.Record(lat)
		}
	case status == 202:
		var p provenance
		if json.Unmarshal(resp, &p) == nil {
			ws.acked = append(ws.acked, Ack{EventIdx: ev.Idx, Seq: p.Seq})
		}
	case status == 503:
		ws.overload++
		if secs, aerr := strconv.Atoi(retryAfter); aerr == nil {
			if ws.raMin == 0 || secs < ws.raMin {
				ws.raMin = secs
			}
			if secs > ws.raMax {
				ws.raMax = secs
			}
		}
	}
}
