package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"swrec/internal/checkpoint"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// Community sizes. The warmed workloads use 2,000 agents: the working
// set fits every engine cache and a warm-up takes seconds. Only
// cold-read runs at the paper's 9,100 (§4.1); warming that engine
// needs minutes and gigabytes this box does not have.
const (
	warmedAgents = 2000
	paperAgents  = 9100
)

// Every cold read leaves its neighbourhood and result in the caches,
// every churn cycle leaves a snapshot behind, and every in-process
// recovery leaves its decoded taxonomy pinned in the profile package's
// table cache (7 MB each, until 64 accumulate; a real restart is a new
// process and pins one). So those three workloads take live_heap_mb
// after a fixed amount of work, not at the end of their seconds:
// restart after the first recovery and its probe reads. (A run too slow
// to get there takes it at the end.)
//
// Cold-read and churn also depend on the plan: the first read the taxonomy-ancestor
// rung answers leaves the map-backed profile of every peer in the
// snapshot's cf.Filter (37 MB at 9,100 agents). Cold-read's checkpoint
// is late enough that such a read has almost surely happened (one
// request in ~100 is one; at 256 requests two seeds in twenty had seen
// none). A churn snapshot lives for one cycle and its 64 reads include
// such a request four times in ten, so churn takes the mean of 17
// checkpoints.
const (
	coldHeapAt     = 512 // cold-read: after this many requests
	churnHeapFrom  = 8   // churn: after cycles 8, 10, ... 40
	churnHeapTo    = 40
	churnHeapEvery = 2
)

// traceEvery is the deterministic sampling stride of a traced run: one
// request in 16 is recorded as a parent span with its replayed children.
const traceEvery = 16

// prepared is what every workload has once set-up, population and the
// oracle check are done.
type prepared struct {
	w   *world
	c   *client
	pop *population
}

// prepareWorld sets the system up (timed as setup_s), then — as harness
// time — derives the population and runs correctness check (a).
func (r *run) prepareWorld(sp spec) (*prepared, error) {
	w, err := r.setup(sp)
	if err != nil {
		return nil, err
	}
	pop, err := newPopulation(w.community(), r.seed)
	if err != nil {
		w.close()
		return nil, err
	}
	p := &prepared{w: w, c: newClient(w), pop: pop}
	r.checkOracle(w, p.c, pop)
	return p, nil
}

// beginMeasured marks the start of the measured phase: the program's
// counters are read and the client's tallies reset.
func (r *run) beginMeasured(p *prepared) {
	p.c.requests, p.c.bytes = 0, 0
	r.before = takeCounters()
}

// get serves one GET. On a traced run a sampled request is also recorded
// as a root span, with the calls it reached replayed beneath it.
func (r *run) get(p *prepared, req *http.Request, ep int, id model.AgentID, sampled bool) (time.Duration, int) {
	if r.tr == nil || !sampled {
		return p.c.do(req)
	}
	misses := computes()
	d, status := p.c.do(req)
	r.tr.replayRead(p.w, ep, id, p.c.start, d, computes() != misses)
	return d, status
}

// readLoop is the measured phase of the two read workloads: the plan's
// GETs in order, one at a time, until the time is up (or, when the plan
// may not repeat, until it ends). After heapAt requests (0: never) it
// stops the clock and measures the live heap: where the heap grows with
// the work done, live_heap_mb must not depend on how far a run got in
// its seconds. It returns the per-request ServeHTTP times in nanoseconds.
func (r *run) readLoop(p *prepared, pl *readPlan, repeat bool, heapAt int) (phase, []float64) {
	samples := len(pl.seq)
	if repeat {
		samples = 1 << 21 // room for the default seconds at four times today's rate without growing mid-phase
	}
	lat := make([]float64, 0, samples)
	var bad []int
	var ph phase
	r.beginMeasured(p)
	deadline := time.Now().Add(r.seconds)
	ph.begin()
	n := 0
	for i := 0; (repeat || i < len(pl.seq)) && p.c.start.Before(deadline); i++ {
		j := pl.seq[i%len(pl.seq)]
		d, status := r.get(p, pl.reqs[j], int(pl.ep[j]), pl.agent[j], i%traceEvery == 0)
		lat = append(lat, float64(d))
		if !r.count(status, http.StatusOK) {
			bad = append(bad, i)
		}
		if n++; i+1 == heapAt {
			ph.end(n)
			n = 0
			r.heapMB = liveHeapMB()
			ph.begin()
		}
	}
	ph.end(n)
	r.delta = takeCounters().minus(r.before)
	penalize(lat, bad)
	return ph, lat
}

// penalize puts every failed request at the phase's maximum: a failure
// misses any latency limit.
func penalize(lat []float64, bad []int) {
	if len(bad) == 0 {
		return
	}
	worst := 0.0
	for _, v := range lat {
		worst = max(worst, v)
	}
	for _, i := range bad {
		lat[i] = worst
	}
}

func warmRead(r *run) error {
	p, err := r.prepareWorld(spec{agents: warmedAgents, warm: true, builds: 3})
	if err != nil {
		return err
	}
	defer p.w.close()
	t := time.Now()
	pl := warmReadPlan(p.pop, r.seed)
	// WarmupCtx fills the peer and profile caches, not the result cache:
	// issue every distinct request once so the measured phase starts warm.
	for _, req := range pl.reqs {
		_, status := p.c.do(req)
		r.count(status, http.StatusOK)
	}
	r.note("plan", "fingerprint=%s requests=%d distinct=%d (cycled) harness.prepare_s=%.3f",
		pl.fp, len(pl.seq), len(pl.reqs), time.Since(t).Seconds())
	ph, lat := r.readLoop(p, pl, true, 0)
	return r.finish(p, measured{rate: ph, cost: ph, ops: lat, reads: lat})
}

func coldRead(r *run) error {
	p, err := r.prepareWorld(spec{agents: paperAgents, builds: 7})
	if err != nil {
		return err
	}
	defer p.w.close()
	t := time.Now()
	pl := coldReadPlan(p.pop)
	r.note("plan", "fingerprint=%s requests=%d distinct=%d (not repeated) harness.prepare_s=%.3f",
		pl.fp, len(pl.seq), len(pl.reqs), time.Since(t).Seconds())
	ph, lat := r.readLoop(p, pl, false, coldHeapAt)
	return r.finish(p, measured{rate: ph, cost: ph, ops: lat, reads: lat})
}

// writeAll issues the writes in order and returns each one's time (ns)
// and the last acknowledged sequence number.
func (r *run) writeAll(c *client, writes []write, lat []float64) ([]float64, uint64) {
	var acked uint64
	for i, wr := range writes {
		req := wr.request()
		if i < len(writes)-1 {
			d, status := c.do(req)
			r.count(status, http.StatusAccepted)
			lat = append(lat, float64(d))
			continue
		}
		d, status, body := c.fetch(req)
		lat = append(lat, float64(d))
		if r.count(status, http.StatusAccepted) {
			seq, err := ackSeq(body)
			if err != nil {
				r.fail("undecodable 202 body: %v", err)
			}
			acked = seq
		}
	}
	return lat, acked
}

func churn(r *run) error {
	p, err := r.prepareWorld(spec{agents: warmedAgents, warm: true, durable: true, builds: 3})
	if err != nil {
		return err
	}
	defer p.w.close()
	r.note("plan", "fingerprint=%s (first %d cycles) cycle=%d writes+flush+%d reads",
		p.pop.churnFingerprint(r.seed), churnFPCycles, churnWrites, churnWrites+churnHotReads)

	var (
		commit, cycles                 phase // the writes and the Flush; those and the reads
		readLat, writeLat, pubs, heaps []float64
		badReads                       []int
	)
	r.beginMeasured(p)
	deadline := time.Now().Add(r.seconds)
	for cycle := 0; time.Now().Before(deadline); cycle++ {
		writes, reads := p.pop.churnCycle(r.seed, cycle)
		readReqs := make([]*http.Request, len(reads))
		for i, id := range reads {
			readReqs[i] = newGET(readPath(epRecommendations, id, ""))
		}
		base := p.w.community()

		// The commit: the writes and the publish that makes them visible.
		cycles.begin()
		commit.begin()
		var acked uint64
		writeLat, acked = r.writeAll(p.c, writes, writeLat)
		t := time.Now()
		err := p.w.pipe.Flush()
		pub := time.Since(t)
		commit.end(len(writes))
		cycles.end(len(writes))
		if err != nil {
			return fmt.Errorf("churn cycle %d: Flush: %w", cycle, err)
		}
		pubs = append(pubs, ms(pub))
		if r.tr != nil {
			r.tr.replayPublish(base, writes, t, pub)
		}
		r.checkVisible(p.w, p.c, writes[len(writes)-1], acked)

		// Reads against the snapshot just published: each one is an
		// operation sample.
		cycles.begin()
		for i, req := range readReqs {
			d, status := r.get(p, req, epRecommendations, reads[i], i%traceEvery == 0)
			readLat = append(readLat, float64(d))
			if !r.count(status, http.StatusOK) {
				badReads = append(badReads, len(readLat)-1)
			}
		}
		cycles.end(len(readReqs))
		if n := cycle + 1; n >= churnHeapFrom && n <= churnHeapTo && n%churnHeapEvery == 0 {
			heaps = append(heaps, liveHeapMB())
		}
	}
	for _, h := range heaps {
		r.heapMB += h / float64(len(heaps))
	}
	r.delta = takeCounters().minus(r.before)
	penalize(readLat, badReads)
	r.note("plan", "cycles=%d publishes=%d writes=%d reads=%d", len(pubs), len(pubs), len(writeLat), len(readLat))
	r.note("churn", "read_p50_us=%.1f write_p50_us=%.1f publish_ms=%.3f publish_p90_ms=%.3f commit_s=%.3f requests_per_s=%.1f (ops_per_s is writes over the commits: %d writes and the Flush; cpu_us_per_op is over whole cycles; op_* are the reads after a publish)",
		median(readLat)/1e3, median(writeLat)/1e3, median(pubs), quantile(pubs, 0.9),
		commit.wall.Seconds(), float64(cycles.ops)/cycles.wall.Seconds(), churnWrites)
	for _, v := range writeLat {
		r.tr.sample("api.write_p50_us", v/1e3)
	}
	for _, v := range pubs {
		r.tr.sample("ingest.flush_ms", v)
	}
	return r.finish(p, measured{rate: commit, cost: cycles, ops: readLat, reads: readLat})
}

// errNoCorpus is what recovery's rung 4 gets: the benchmark must land
// on rung 1, so a rebuild from the corpus is a failure, not a fallback.
var errNoCorpus = errors.New("bench: recovery fell through to the corpus rebuild")

func recoverConfig(dir string) checkpoint.RecoverConfig {
	return checkpoint.RecoverConfig{
		WALDir:  dir,
		Options: engineOptions(),
		Corpus:  func() (*model.Community, error) { return nil, errNoCorpus },
	}
}

// writeCheckpoint persists the serving snapshot the way the pipeline's
// background writer does, at a point the harness chooses.
func writeCheckpoint(w *world) (path string, err error) {
	_, seq := w.pipe.Applied()
	dir := checkpoint.Dir(w.dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path, err = checkpoint.WriteImage(dir, checkpoint.Capture(w.eng.Snapshot(), seq), nil)
	if err != nil {
		return "", err
	}
	return path, checkpoint.Prune(dir, 2)
}

// crash is kill -9 for the in-process server: the pipeline stops
// without applying or checkpointing, and the engine is dropped.
func (w *world) crash() {
	_ = w.pipe.Abort() // nothing is pending: every write was flushed, and recovery reads only the directory
	w.pipe, w.eng, w.srv = nil, nil, nil
	runtime.GC()
}

// recovery crashes the server and times its restart — walk the recovery
// ladder, reopen ingest at the recovered sequence (which replays the WAL
// tail), rebind the handler, answer one read — as one operation of ph.
// It checks the part of correctness check (c) that every recovery owes:
// rung 1, the whole tail replayed, the read answered. With replay set, a
// traced run also loads and restores the checkpoint directly, beneath
// the Recover span.
func (r *run) recovery(p *prepared, ph *phase, first *http.Request, replay bool) (res *checkpoint.Result, total, firstRead time.Duration, err error) {
	w, t := p.w, r.tr
	w.crash()
	root := t.open("restart")
	ph.begin()
	t0 := time.Now()
	_, d := t.timed("checkpoint.Recover", root, func() { res, err = checkpoint.Recover(recoverConfig(w.dir)) })
	if err != nil {
		return nil, 0, 0, fmt.Errorf("checkpoint.Recover: %w", err)
	}
	t.sample("checkpoint.recover_ms", ms(d))
	var pipe *ingest.Pipeline
	_, d = t.timed("ingest.OpenFrom", root, func() { pipe, err = ingest.OpenFrom(res.Engine, w.dir, ingestConfig(), res.Seq) })
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ingest.OpenFrom: %w", err)
	}
	t.sample("ingest.open_replay_ms", ms(d))
	w.eng, w.pipe = res.Engine, pipe
	w.serve()
	firstRead, status := p.c.do(first)
	total = time.Since(t0)
	ph.end(1)

	t.span("api.Server.ServeHTTP first read", root, p.c.start, firstRead)
	t.close(root, t0, total)
	t.sample("engine.first_read_us", us(firstRead))
	t.sample("checkpoint.restart_ms", ms(total))
	if res.Rung != 1 || pipe.Replayed() != restartWrites {
		r.fail("recovery landed on rung %d (%s) and replayed %d records, want rung 1 and %d",
			res.Rung, res.Source, pipe.Replayed(), restartWrites)
	}
	if t != nil && replay {
		t.replayRecover(res, root)
	}
	r.count(status, http.StatusOK)
	return res, total, firstRead, nil
}

func restart(r *run) error {
	p, err := r.prepareWorld(spec{agents: warmedAgents, warm: true, durable: true, builds: 3})
	if err != nil {
		return err
	}
	defer p.w.close()
	w := p.w
	r.note("plan", "fingerprint=%s %d x (%d writes, checkpoint, %d writes, crash and recover until the cycle's share of the seconds is up)",
		p.pop.restartFingerprint(r.seed), restartCheckpoints, restartWrites, restartWrites)

	var (
		ph                phase
		lat, firstReads   []float64 // per recovery: the whole restart, and its first read alone
		afterCheckpoint   []float64 // the first recovery of each checkpoint
		recoveries        int
		lastFile          string
		began             = time.Now()
		recoverFor        = r.seconds / restartCheckpoints
		untimedCheckpoint time.Duration
	)
	r.beginMeasured(p)
	for cycle := 0; cycle < restartCheckpoints; cycle++ {
		t := time.Now()
		covered, tail := p.pop.restartCycle(r.seed, cycle)
		r.writeAll(p.c, covered, nil)
		if err := w.pipe.Flush(); err != nil {
			return fmt.Errorf("restart cycle %d: Flush: %w", cycle, err)
		}
		// A serving snapshot refills its caches before it is checkpointed.
		w.eng.WarmupCtx(context.Background(), warmWorkers)
		if lastFile, err = writeCheckpoint(w); err != nil {
			return fmt.Errorf("restart cycle %d: checkpoint: %w", cycle, err)
		}
		r.writeAll(p.c, tail, nil)
		if err := w.pipe.Flush(); err != nil {
			return fmt.Errorf("restart cycle %d: Flush: %w", cycle, err)
		}
		before, _ := r.probeAnswers(p.c, p.pop)
		untimedCheckpoint += time.Since(t)

		// Crash and recover, over and over, until this checkpoint's share
		// of the seconds is used up (at least restartMinRecoveries times).
		deadline := began.Add(time.Duration(cycle+1) * recoverFor)
		for k := 0; k < restartMinRecoveries || time.Now().Before(deadline); k++ {
			id := p.pop.hotAgentAt(uint64(recoveries))
			_, total, firstRead, err := r.recovery(p, &ph, newGET(readPath(epRecommendations, id, "")), k == 0)
			if err != nil {
				return fmt.Errorf("restart cycle %d recovery %d: %w", cycle, k, err)
			}
			recoveries++
			lat = append(lat, float64(total))
			firstReads = append(firstReads, float64(firstRead))
			if k == 0 {
				afterCheckpoint = append(afterCheckpoint, float64(total))
				r.checkRecovered(p, before, cycle, k)
				if cycle == 0 {
					r.heapMB = liveHeapMB()
				}
			}
		}
		r.checkRecovered(p, before, cycle, -1)
	}
	r.delta = takeCounters().minus(r.before)
	st, err := os.Stat(lastFile)
	if err != nil {
		return err
	}
	r.note("plan", "checkpoints=%d recoveries=%d untimed_per_checkpoint_s=%.2f", restartCheckpoints, recoveries,
		untimedCheckpoint.Seconds()/restartCheckpoints)
	r.note("restart", "restart_ms=%.2f first_after_checkpoint_ms=%.2f checkpoint_mb=%.3f (op_* are recoveries: Recover start to first 200)",
		median(lat)/1e6, median(afterCheckpoint)/1e6, float64(st.Size())/1e6)
	r.metrics["checkpoint.file_mb"] = float64(st.Size()) / 1e6 // of a warmed snapshot, not of the state the probes find
	return r.finish(p, measured{rate: ph, cost: ph, ops: lat, reads: firstReads})
}

// checkRecovered is the rest of correctness check (c): the recovered
// server answers the probe set exactly as the one that crashed did.
func (r *run) checkRecovered(p *prepared, before string, cycle, k int) {
	if after, _ := r.probeAnswers(p.c, p.pop); after != before {
		r.fail("cycle %d recovery %d: probe fingerprint %s, was %s before the crash", cycle, k, after, before)
	}
}
