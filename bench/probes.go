package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/checkpoint"
	"swrec/internal/ingest"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/trust"
	"swrec/internal/wal"
)

// The layer probes run after the measured phase of a traced run, on the
// system the workload leaves behind, and time a direct call into every
// layer — so that each traced run reports each layer at its own
// community size and cache state, whether or not its requests reached
// that layer. Samples they take pool with the samples the measured
// phase took under the same metric name: the timed call is the same.

const (
	probeWrites = 32 // writes per probe step: a churn cycle's worth
	// probeWriteBase offsets the probes' draws in the seed's write stream
	// past anything a measured phase reaches.
	probeWriteBase = 1 << 24
)

// prober is the state the probes share.
type prober struct {
	r    *run
	t    *tracer
	p    *prepared
	dir  string
	next uint64 // next draw of the write stream
}

func (pr *prober) draw(n int) []write {
	ws := make([]write, n)
	for i := range ws {
		ws[i] = pr.p.pop.writeAt(pr.r.seed, pr.next)
		pr.next++
	}
	return ws
}

// layerProbes runs the probes in the one order that works: the durable
// path first, on the caches as the workload left them (it ends in a
// recovered engine, as after a restart); then publishes the harness
// performs itself, which leave the written agents uncached for the
// first-touch reads, which leave them cached for the warm reads.
func (r *run) layerProbes(p *prepared) error {
	if p.w.pipe != nil {
		_ = p.w.pipe.Abort() // every write was flushed; the probes use a directory of their own
		p.w.pipe = nil
	}
	pr := &prober{r: r, t: r.tr, p: p, dir: filepath.Join(r.durableRoot, "probe"), next: probeWriteBase}
	if err := os.MkdirAll(pr.dir, 0o755); err != nil {
		return err
	}
	if err := pr.durablePath(); err != nil {
		return err
	}
	written, err := pr.publishes()
	if err != nil {
		return err
	}
	pr.reads(written)
	pr.profmat(written)
	return pr.wal()
}

// syncCounter counts fsyncs on the WAL's active segment through the
// WrapFile seam.
type syncCounter struct {
	wal.File
	n *atomic.Int64
}

func (s syncCounter) Sync() error {
	s.n.Add(1)
	return s.File.Sync()
}

// nopWriter acknowledges without a pipeline behind it, so a POST served
// through it costs only what the api layer does itself: route, decode,
// validate, encode.
type nopWriter struct{}

func (nopWriter) Submit(wal.Mutation) (uint64, error) { return 1, nil }

// durablePath probes checkpoint, write path and recovery in the order a
// server lives them: checkpoint the serving snapshot, take writes (they
// become the WAL tail), publish, crash, recover.
func (pr *prober) durablePath() error {
	r, t, w, c := pr.r, pr.t, pr.p.w, pr.p.c
	var fsyncs atomic.Int64
	cfg := ingestConfig()
	cfg.WAL.WrapFile = func(f *os.File) wal.File { return syncCounter{f, &fsyncs} }
	pipe, err := ingest.Open(w.eng, pr.dir, cfg)
	if err != nil {
		return fmt.Errorf("probe ingest.Open: %w", err)
	}
	w.pipe, w.dir = pipe, pr.dir
	w.serve()

	var img *checkpoint.Image
	_, d := t.timed("checkpoint.Capture", 0, func() { img = checkpoint.Capture(w.eng.Snapshot(), 0) })
	t.sample("checkpoint.capture_ms", ms(d))
	_, d = t.timed("checkpoint.Encode", 0, func() { _ = checkpoint.Encode(img) })
	t.sample("checkpoint.encode_ms", ms(d))
	ckptDir := checkpoint.Dir(pr.dir)
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return err
	}
	var path string
	_, d = t.timed("checkpoint.WriteImage", 0, func() { path, err = checkpoint.WriteImage(ckptDir, img, nil) })
	if err != nil {
		return fmt.Errorf("probe WriteImage: %w", err)
	}
	t.sample("checkpoint.write_ms", ms(d))
	img = nil
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.sample("checkpoint.file_mb", float64(st.Size())/1e6)

	// restartWrites records behind the checkpoint: POSTs, direct
	// Submits, and POSTs against a pipeline-less server for the api
	// layer's own share of a write.
	posts := pr.draw(probeWrites)
	for _, wr := range posts {
		d, status := c.do(wr.request())
		r.count(status, http.StatusAccepted)
		t.span("api.Server.ServeHTTP write", 0, c.start, d)
		t.sample("api.write_p50_us", us(d))
	}
	for _, wr := range pr.draw(restartWrites - probeWrites) {
		m := wr.mut
		_, d := t.timed("ingest.Pipeline.Submit", 0, func() { _, err = pipe.Submit(m) })
		if err != nil {
			return fmt.Errorf("probe Submit: %w", err)
		}
		t.sample("ingest.submit_us", us(d))
	}
	r.metrics["wal.fsyncs_per_write"] = ratio(fsyncs.Load(), restartWrites)
	stub := api.NewWritable(w.eng, nopWriter{})
	for _, wr := range posts {
		var s sink
		s.hdr = make(http.Header, 2)
		req := wr.request()
		_, d := t.timed("api.Server.ServeHTTP write, no pipeline", 0, func() { stub.ServeHTTP(&s, req) })
		r.count(s.status, http.StatusAccepted)
		t.sample("api.write_self_us", us(d))
	}
	_, d = t.timed("ingest.Pipeline.Flush", 0, func() { err = pipe.Flush() })
	if err != nil {
		return fmt.Errorf("probe Flush: %w", err)
	}
	t.sample("ingest.flush_ms", ms(d))

	res, _, _, err := r.recovery(pr.p, &phase{}, newGET(readPath(epRecommendations, posts[0].mut.Agent, "")), true)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	r.metrics["checkpoint.rung"] = float64(res.Rung)
	_ = w.pipe.Abort() // the harness swaps the engine itself from here on
	w.pipe = nil
	w.serve()
	return nil
}

// publishes does by hand what Pipeline.Flush does — clone, apply,
// SwapDelta — on the serving engine, each step timed, and returns the
// agents the last round wrote to (now dirty, so uncached).
func (pr *prober) publishes() ([]model.AgentID, error) {
	t, w := pr.t, pr.p.w
	var written []model.AgentID
	for round := 0; round < 3; round++ {
		writes := pr.draw(probeWrites)
		root := t.open("publish")
		t0 := time.Now()
		var clone *model.Community
		_, d := t.timed("model.Community.Clone", root, func() { clone = w.community().Clone() })
		t.sample("model.clone_ms", ms(d))
		delta := t.applyTo(clone, writes, root)
		var err error
		_, d = t.timed("engine.Engine.SwapDelta", root, func() { _, err = w.eng.SwapDelta(clone, delta) })
		if err != nil {
			return nil, fmt.Errorf("probe SwapDelta: %w", err)
		}
		t.sample("engine.swap_delta_ms", ms(d))
		t.close(root, t0, time.Since(t0))
		written = written[:0]
		for _, wr := range writes {
			written = append(written, wr.mut.Agent)
		}
	}
	return written, nil
}

// reads takes the first-touch and the warm numbers of the read path on
// the agents a publish just made dirty. Odd ones are first read through
// the API, even ones through the engine with the pipeline stages
// replayed beneath; then every endpoint of the read mix is read warm.
func (pr *prober) reads(agents []model.AgentID) {
	r, t, w, c := pr.r, pr.t, pr.p.w, pr.p.c
	ctx := context.Background()
	snap := w.eng.Snapshot()
	rec := snap.Recommender()
	gen := rec.Filter().Generator()
	net := trust.FromCommunity(snap.Community())
	for i, id := range agents {
		if i%2 == 1 {
			_, status := r.get(pr.p, newGET(readPath(epRecommendations, id, "")), epRecommendations, id, true)
			r.count(status, http.StatusOK)
			continue
		}
		if _, ok := snap.CachedRecommend(id, topN, noOverrides); !ok {
			root, d := t.timed("engine.Snapshot.RecommendCtx first touch", 0, func() { _, _ = snap.RecommendCtx(ctx, id, topN, noOverrides) })
			t.sample("engine.cold_recommend_us", us(d))
			t.replayPipeline(snap, id, root)
		}
		a := snap.Community().Agent(id)
		_, d := t.timed("profile.Generator.ProfileCtx", 0, func() { _, _ = gen.ProfileCtx(ctx, a, snap.Community()) })
		t.sample("profile.eq3_us", us(d))
		if nb, err := rec.NeighborhoodCtx(ctx, id); err == nil {
			_, d = t.timed("trust.WidenOneHop", 0, func() { _ = trust.WidenOneHop(net, nb, 0.5) })
			t.sample("trust.widen_us", us(d))
		}
	}
	product := pr.p.pop.products[0]
	for _, id := range agents {
		for ep := 0; ep < numEndpoints; ep++ {
			req := newGET(readPath(ep, id, product))
			c.do(req) // fills whichever cache this endpoint reads
			_, status := r.get(pr.p, req, ep, id, true)
			r.count(status, http.StatusOK)
		}
	}
}

// profmat times the similarity substrate: one agent's row against every
// row of the compiled matrix, a full compile, and a delta compile with
// the given agents dirty.
func (pr *prober) profmat(dirty []model.AgentID) {
	t := pr.t
	ctx := context.Background()
	snap := pr.p.w.eng.Snapshot()
	comm := snap.Community()
	mat := snap.Recommender().Filter().Matrix()
	sc := profmat.NewScratch(comm.Taxonomy().Len())
	dirtyOrd := make(map[int32]bool, len(dirty))
	for _, id := range dirty {
		ord := comm.Agent(id).Ord()
		dirtyOrd[ord] = true
		row := mat.Row(ord)
		_, d := t.timed("profmat.Scratch.Load+CosineTo, every row", 0, func() {
			sc.Load(row)
			for i := 0; i < mat.Len(); i++ {
				sc.CosineTo(mat.Row(int32(i)))
			}
		})
		t.sample("profmat.cosine_scan_ns_per_row", float64(d.Nanoseconds())/float64(mat.Len()))
	}
	for i := 0; i < 3; i++ {
		if f, err := cf.New(comm, engineOptions().CF); err == nil {
			_, d := t.timed("cf.Filter.Compile", 0, func() { _ = f.Compile(ctx) })
			t.sample("profmat.build_ms", ms(d))
		}
		if f, err := cf.New(comm, engineOptions().CF); err == nil {
			_, d := t.timed("cf.Filter.CompileDelta", 0, func() {
				_ = f.CompileDelta(ctx, mat, func(ord int32) bool { return dirtyOrd[ord] })
			})
			t.sample("profmat.build_delta_ms", ms(d))
		}
	}
}

// wal times the log alone, on scratch logs beside the probe's durable
// directory: 64-mutation group commits, single appends without fsync,
// single appends with it (the difference is the device's share), and a
// replay of the last log.
func (pr *prober) wal() error {
	r, t := pr.r, pr.t
	muts := make([]wal.Mutation, 64)
	for i, wr := range pr.draw(len(muts)) {
		muts[i] = wr.mut
	}
	appendAll := func(name string, opt wal.Options, batch int, metric string) (*wal.WAL, error) {
		l, err := wal.Open(filepath.Join(pr.dir, name), opt)
		if err != nil {
			return nil, fmt.Errorf("probe wal.Open: %w", err)
		}
		for i := 0; i+batch <= len(muts); i += batch {
			_, d := t.timed(fmt.Sprintf("wal.WAL.Append x%d", batch), 0, func() { _, _, err = l.Append(muts[i : i+batch]) })
			if err != nil {
				_ = l.Close() // the append error is the one to report
				return nil, fmt.Errorf("probe wal.Append: %w", err)
			}
			t.sample(metric, us(d))
		}
		return l, nil
	}
	for i := 0; i < 8; i++ {
		l, err := appendAll(fmt.Sprintf("wal-batch%d", i), wal.Options{}, len(muts), "wal.append_batch64_us")
		if err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	l, err := appendAll("wal-nosync", wal.Options{NoSync: true}, 1, "wal.append_nosync_us")
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	if l, err = appendAll("wal-single", wal.Options{}, 1, "wal.append_us"); err != nil {
		return err
	}
	st := l.Stats()
	r.metrics["wal.bytes_per_mutation"] = ratio(st.ActiveBytes, int64(st.Appended))
	r.metrics["wal.fsync_disk_us"] = median(t.samples["wal.append_us"]) - median(t.samples["wal.append_nosync_us"])
	n := 0
	_, d := t.timed("wal.WAL.Replay", 0, func() {
		err = l.Replay(1, func(uint64, wal.Mutation) error { n++; return nil })
	})
	if err != nil || n != len(muts) {
		return fmt.Errorf("probe wal.Replay: %d of %d records, %v", n, len(muts), err)
	}
	r.metrics["wal.replay_us_per_record"] = us(d) / float64(n)
	return l.Close()
}
