package main

import (
	"context"
	"expvar"
	"runtime"
	"time"

	"swrec/internal/checkpoint"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/trust"
	"swrec/internal/wal"
)

// perLayer are the metrics of a traced run, one or more per module,
// each a timed call into (or a counter of) that module's exported
// surface. README.md says which end-to-end metric each should move, on
// which workload. Every traced run reports every one: a workload that
// does not reach a layer in its measured phase gets the layer's number
// from the probes that follow it (layerProbes), taken on the same
// community at the same scale.
var perLayer = []metricDef{
	{Name: "api.serve_self_us", Unit: "us", Better: "lower"},
	{Name: "api.serve_p99_us", Unit: "us", Better: "lower"},
	{Name: "api.serve_p999_us", Unit: "us", Better: "lower"},
	{Name: "api.serve_max_us", Unit: "us", Better: "lower"},
	{Name: "api.recommendations_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.neighbors_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.profile_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.agent_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.product_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.first_touch_read_us", Unit: "us", Better: "lower"},
	{Name: "api.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "api.write_self_us", Unit: "us", Better: "lower"},
	{Name: "api.resp_bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "strategy.ladder_self_us", Unit: "us", Better: "lower"},
	{Name: "strategy.rung_share.full-synthesis", Unit: "ratio", Better: "higher"},
	{Name: "strategy.rung_share.trust-hop-widening", Unit: "ratio", Better: "lower"},
	{Name: "strategy.rung_share.taxonomy-ancestor", Unit: "ratio", Better: "lower"},
	{Name: "strategy.rung_share.popularity", Unit: "ratio", Better: "lower"},
	{Name: "strategy.rung_share.degraded-cache", Unit: "ratio", Better: "lower"},
	{Name: "engine.cached_recommend_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.cold_recommend_us", Unit: "us", Better: "lower"},
	{Name: "engine.results_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.peers_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.profile_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.carry_ratio_peers", Unit: "ratio", Better: "higher"},
	{Name: "engine.carry_ratio_results", Unit: "ratio", Better: "higher"},
	{Name: "engine.dirty_agents_per_publish", Unit: "count", Better: "lower"},
	{Name: "engine.swap_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.new_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.warmup_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.first_read_us", Unit: "us", Better: "lower"},
	{Name: "trust.appleseed_us", Unit: "us", Better: "lower"},
	{Name: "trust.appleseed_allocs", Unit: "count", Better: "lower"},
	{Name: "trust.neighborhood_size_p50", Unit: "count", Better: "lower"},
	{Name: "trust.widen_us", Unit: "us", Better: "lower"},
	{Name: "cf.synthesize_us", Unit: "us", Better: "lower"},
	{Name: "profmat.cosine_scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "profmat.build_ms", Unit: "ms", Better: "lower"},
	{Name: "profmat.build_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.eq3_us", Unit: "us", Better: "lower"},
	{Name: "core.vote_us", Unit: "us", Better: "lower"},
	{Name: "model.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.submit_us", Unit: "us", Better: "lower"},
	{Name: "ingest.validate_apply_us", Unit: "us", Better: "lower"},
	{Name: "ingest.publish_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.publish_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.publish_max_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest.open_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_batch64_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_disk_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_mutation", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "wal.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "checkpoint.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.load_allocs", Unit: "count", Better: "lower"},
	{Name: "checkpoint.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.rung", Unit: "count", Better: "lower"},
	{Name: "checkpoint.file_mb", Unit: "MB", Better: "lower"},
	{Name: "checkpoint.restart_ms", Unit: "ms", Better: "lower"},
	{Name: "datagen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}

// counters are the program's own expvar maps plus the runtime's
// allocation and GC totals, read at the edges of a measured phase.
type counters struct {
	vars map[string]int64 // "swrec_engine.results_hit" → value
	mem  runtime.MemStats
}

func takeCounters() counters {
	c := counters{vars: make(map[string]int64)}
	for _, name := range []string{"swrec_engine", "swrec_strategy", "swrec_ingest"} {
		m, ok := expvar.Get(name).(*expvar.Map)
		if !ok {
			continue
		}
		m.Do(func(kv expvar.KeyValue) {
			if v, ok := kv.Value.(*expvar.Int); ok {
				c.vars[name+"."+kv.Key] = v.Value()
			}
		})
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// minus returns the growth since an earlier reading.
func (c counters) minus(before counters) counters {
	d := counters{vars: make(map[string]int64, len(c.vars)), mem: c.mem}
	for k, v := range c.vars {
		d.vars[k] = v - before.vars[k]
	}
	d.mem.TotalAlloc -= before.mem.TotalAlloc
	d.mem.Mallocs -= before.mem.Mallocs
	d.mem.NumGC -= before.mem.NumGC
	d.mem.PauseTotalNs -= before.mem.PauseTotalNs
	return d
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// mallocs is the process's allocation count so far; the difference
// around a single-goroutine call is that call's allocations.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

var noOverrides engine.Overrides

// computes is how many cache misses the engine has counted so far on
// the two caches a read can be answered from. If it moved across a
// request, that request ran the pipeline; if not, it was served from
// cache (or by a rung that computes nothing per agent).
func computes() int64 {
	m, ok := expvar.Get("swrec_engine").(*expvar.Map)
	if !ok {
		return 0
	}
	n := int64(0)
	for _, key := range []string{"results_miss", "peers_miss"} {
		if v, ok := m.Get(key).(*expvar.Int); ok {
			n += v.Value()
		}
	}
	return n
}

// replayRead records a served GET as a root span and, beside it, calls
// directly the exported functions that request reached, as its
// children. A /recommendations served from cache replays the warm chain
// (RecommendLadder ⊃ RecommendCtx ⊃ CachedRecommend); one that was
// computed (the engine's miss counters moved: see computes) replays the
// pipeline stages on the snapshot's own core.Recommender, which has no
// caches to hit.
func (t *tracer) replayRead(w *world, ep int, id model.AgentID, start time.Time, d time.Duration, computed bool) {
	t0 := time.Now()
	defer func() { t.overhead += time.Since(t0) }()
	root := t.span("api.Server.ServeHTTP "+endpointNames[ep], 0, start, d)
	if computed {
		t.sample("api.first_touch_read_us", us(d))
	} else {
		t.sample("api."+endpointNames[ep]+"_p50_us", us(d))
	}
	ctx := context.Background()
	snap := w.eng.Snapshot()
	switch {
	case ep == epRecommendations && !computed:
		ladder, dl := t.replay("engine.Engine.RecommendLadder", root, func() {
			_, _, _ = w.eng.RecommendLadder(ctx, snap, id, topN, noOverrides, strategy.Selector{})
		})
		rc, dr := t.replay("engine.Snapshot.RecommendCtx", ladder, func() {
			_, _ = snap.RecommendCtx(ctx, id, topN, noOverrides)
		})
		_, dc := t.replay("engine.Snapshot.CachedRecommend", rc, func() {
			_, _ = snap.CachedRecommend(id, topN, noOverrides)
		})
		t.sample("api.serve_self_us", us(d-dl))
		t.sample("strategy.ladder_self_us", us(dl-dr))
		t.sample("engine.cached_recommend_ns", float64(dc.Nanoseconds()))
	case ep == epRecommendations:
		t.replayPipeline(snap, id, root)
	case ep == epNeighbors:
		t.replay("engine.Engine.RankedPeersLadder", root, func() {
			_, _, _ = w.eng.RankedPeersLadder(ctx, snap, id, noOverrides, strategy.Selector{})
		})
	case ep == epProfile:
		t.replay("engine.Snapshot.ProfileCtx", root, func() { _, _ = snap.ProfileCtx(ctx, id) })
	}
}

// replayPipeline runs the paper's stages for one agent, uncached, as
// children of parent: Appleseed neighbourhood (§3.2), similarity scan
// and rank synthesis (§3.3-3.4), product vote (§3.4).
func (t *tracer) replayPipeline(snap *engine.Snapshot, id model.AgentID, parent int) {
	ctx := context.Background()
	rec := snap.Recommender()
	var nb *trust.Neighborhood
	var peers []core.PeerRank
	before := mallocs()
	_, d := t.replay("core.Recommender.NeighborhoodCtx", parent, func() { nb, _ = rec.NeighborhoodCtx(ctx, id) })
	t.sample("trust.appleseed_allocs", float64(mallocs()-before))
	t.sample("trust.appleseed_us", us(d))
	if nb == nil {
		return
	}
	t.sample("trust.neighborhood_size_p50", float64(len(nb.Ranks)))
	_, d = t.replay("core.Recommender.SynthesizeCtx", parent, func() { peers, _ = rec.SynthesizeCtx(ctx, id, nb) })
	t.sample("cf.synthesize_us", us(d))
	_, d = t.replay("core.Recommender.RecommendFromCtx", parent, func() { _, _ = rec.RecommendFromCtx(ctx, id, peers, topN) })
	t.sample("core.vote_us", us(d))
}

// applyTo folds the writes' mutations into a clone the way the ingest
// worker does, timing each ValidateIn+Apply.
func (t *tracer) applyTo(clone *model.Community, writes []write, parent int) *engine.Delta {
	delta := engine.NewDelta()
	sym := clone.Symbols()
	for _, wr := range writes {
		m := wr.mut
		_, d := t.replay("ingest.ValidateIn+Apply", parent, func() {
			if ingest.ValidateIn(clone, m) == nil {
				_ = ingest.Apply(clone, m) // a mutation the plan built cannot fail to apply; the real pipeline counts and skips it too
			}
		})
		t.sample("ingest.validate_apply_us", us(d))
		if ord, ok := sym.AgentOrd(m.Agent); ok {
			if m.Op == wal.OpUpsertTrust {
				delta.TrustChanged[ord] = true
			} else {
				delta.RatingsChanged[ord] = true
			}
		}
	}
	return delta
}

// replayPublish records one Pipeline.Flush as a root span and replays
// beside it the two parts of a publish the harness can call directly —
// Community.Clone and the per-mutation apply; what remains of the span
// is deltaOf + Engine.SwapDelta.
func (t *tracer) replayPublish(base *model.Community, writes []write, start time.Time, d time.Duration) {
	root := t.span("ingest.Pipeline.Flush", 0, start, d)
	var clone *model.Community
	_, dc := t.replay("model.Community.Clone", root, func() { clone = base.Clone() })
	t.sample("model.clone_ms", ms(dc))
	t.applyTo(clone, writes, root)
}

// replayRecover loads and restores, directly, the checkpoint a timed
// recovery just used: the two calls inside checkpoint.Recover.
func (t *tracer) replayRecover(res *checkpoint.Result, parent int) {
	rec := t.findChild(parent, "checkpoint.Recover")
	var img *checkpoint.Image
	var err error
	before := mallocs()
	_, d := t.replay("checkpoint.Load", rec, func() { img, err = checkpoint.Load(res.Path, engineOptions()) })
	if err != nil {
		return
	}
	t.sample("checkpoint.load_allocs", float64(mallocs()-before))
	t.sample("checkpoint.load_ms", ms(d))
	_, d = t.replay("checkpoint.Image.Restore", rec, func() { _, _ = img.Restore(engine.Config{}) })
	t.sample("engine.restore_ms", ms(d))
}

// findChild returns the ID of parent's child span with the given name.
func (t *tracer) findChild(parent int, name string) int {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.Parent == parent && s.Name == name {
			return s.ID
		}
	}
	return parent
}

// layerMetrics turns what a traced run collected — samples, counter
// growth over the measured phase, set-up stages — into the per-layer
// metric values. A metric with samples and no explicit value is the
// samples' median.
func (r *run) layerMetrics(p *prepared, md measured) {
	t, m, ph := r.tr, r.metrics, md.cost
	sorted := sortedCopy(md.reads)
	m["api.serve_p99_us"] = percentile(sorted, 0.99) / 1e3
	m["api.serve_p999_us"] = percentile(sorted, 0.999) / 1e3
	m["api.serve_max_us"] = percentile(sorted, 1) / 1e3

	d := r.delta.vars
	answered := int64(0)
	for _, proc := range strategy.Procedures {
		answered += d["swrec_strategy."+string(proc)+"_success"]
	}
	for _, proc := range strategy.Procedures {
		m["strategy.rung_share."+string(proc)] = ratio(d["swrec_strategy."+string(proc)+"_success"], answered)
	}
	hit := func(name string) float64 {
		h, miss := d["swrec_engine."+name+"_hit"], d["swrec_engine."+name+"_miss"]
		return ratio(h, h+miss)
	}
	m["engine.results_hit_ratio"] = hit("results")
	m["engine.peers_hit_ratio"] = hit("peers")
	m["engine.profile_hit_ratio"] = hit("profile")

	// Carry ratios are per publish, as a share of the agents (a warmed
	// cache holds one entry per agent): over the measured phase's
	// publishes where it made any, else over the probes' own.
	pub := d
	if pub["swrec_engine.swap_delta"] == 0 {
		pub = takeCounters().minus(r.probesFrom).vars
	}
	entries := pub["swrec_engine.swap_delta"] * int64(p.w.community().NumAgents())
	m["engine.carry_ratio_peers"] = ratio(pub["swrec_engine.carried_peers"], entries)
	m["engine.carry_ratio_results"] = ratio(pub["swrec_engine.carried_results"], entries)
	m["engine.dirty_agents_per_publish"] = ratio(pub["swrec_engine.dirty_agents"], pub["swrec_engine.swap_delta"])

	st := p.w.st
	m["datagen.generate_ms"] = ms(st.generate)
	m["engine.new_ms"] = ms(st.engineNew)
	m["engine.warmup_share"] = st.warmup.Seconds() / st.total().Seconds()

	pubs := sortedCopy(t.samples["ingest.flush_ms"])
	m["ingest.publish_p50_ms"] = percentile(pubs, 0.5)
	m["ingest.publish_p90_ms"] = percentile(pubs, 0.9)
	m["ingest.publish_max_ms"] = percentile(pubs, 1)

	mem := r.delta.mem
	m["runtime.alloc_kb_per_op"] = float64(mem.TotalAlloc) / 1024 / float64(max(ph.ops, 1))
	m["runtime.gc_cycles"] = float64(mem.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(mem.PauseTotalNs) / 1e6

	m["trace.ops_per_s"] = float64(ph.ops) / ph.wall.Seconds()
	m["trace.overhead_pct"] = 100 * t.phaseOverhead.Seconds() / (ph.wall - t.phaseOverhead).Seconds()
	m["trace.coverage"] = coverage(t.spans[:t.phaseSpans])

	for name, s := range t.samples {
		if _, set := m[name]; !set && len(s) > 0 {
			m[name] = median(s)
		}
	}
}
