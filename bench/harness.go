package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"swrec/internal/api"
	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/ingest"
	"swrec/internal/model"
)

// warmWorkers is the WarmupCtx pool size and the GOMAXPROCS the
// benchmark pins, so a box with more cores measures the same program.
const warmWorkers = 2

// engineOptions are the serving options swrecload uses (loadgen keeps
// them unexported): Appleseed, alpha 0.5, cosine over taxonomy profiles.
func engineOptions() core.Options {
	return core.Options{
		Alpha: 0.5, AlphaSet: true,
		Metric: core.Appleseed,
		CF:     cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
	}
}

// ingestConfig takes every timer and counter trigger out of the
// pipeline: publishes happen only when the harness calls Flush, and
// compiled checkpoints only when it calls checkpoint.WriteImage, so a
// run's work never depends on wall time. The WAL keeps its default
// fsync policy.
func ingestConfig() ingest.Config {
	return ingest.Config{SnapshotInterval: time.Hour, SnapshotEvery: 1 << 30}
}

// spec is the shape of one workload's system under test.
type spec struct {
	agents  int  // community size; everything else is datagen.PaperScale
	warm    bool // WarmupCtx is part of set-up
	durable bool // ingest.Open is part of set-up
	builds  int  // set-ups per run; setup_s is their median
}

// stages are the wall times of one set-up, by module.
type stages struct {
	generate, engineNew, warmup, ingestOpen time.Duration
}

func (s stages) total() time.Duration {
	return s.generate + s.engineNew + s.warmup + s.ingestOpen
}

// world is one swrecd in process: engine, optional write pipeline, and
// the real API handler over both. It keeps no community pointer; the
// engine owns epochs.
type world struct {
	eng  *engine.Engine
	pipe *ingest.Pipeline
	srv  *api.Server
	dir  string // durable directory, "" when read-only
	st   stages
}

func (w *world) community() *model.Community { return w.eng.Snapshot().Community() }

// close stops the pipeline the way kill -9 would (nothing is pending
// when the harness calls it) and removes the durable directory.
func (w *world) close() {
	if w.pipe != nil {
		_ = w.pipe.Abort() // the directory is deleted next; nothing depends on a clean close
		w.pipe = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // scratch data under out/; a leftover is harmless and .gitignore'd
	}
}

// build is the timed set-up: generate the community, compile the
// engine, warm it and open the write pipeline, as the spec asks.
//
// The community is the same for every --seed (datagen.PaperScale's own
// generation seed): it stands for the corpus, which a deployment has
// one of. The seed draws the requests against it. Measured across ten
// seeds, letting the seed redraw the community too moved cold-read's
// throughput by 10 % and its live heap by 8 %: community shape, not the
// program, and more than the heap's whole bound.
func build(sp spec, dir string) (*world, error) {
	cfg := datagen.PaperScale()
	cfg.Agents = sp.agents
	w := &world{}

	t := time.Now()
	comm, _ := datagen.Generate(cfg)
	w.st.generate = time.Since(t)

	t = time.Now()
	eng, err := engine.New(comm, engineOptions(), engine.Config{})
	if err != nil {
		return nil, fmt.Errorf("engine.New: %w", err)
	}
	w.eng = eng
	w.st.engineNew = time.Since(t)

	if sp.warm {
		t = time.Now()
		eng.WarmupCtx(context.Background(), warmWorkers)
		w.st.warmup = time.Since(t)
	}
	if sp.durable {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("durable dir: %w", err)
		}
		w.dir = dir
		t = time.Now()
		pipe, err := ingest.Open(eng, dir, ingestConfig())
		if err != nil {
			return nil, fmt.Errorf("ingest.Open: %w", err)
		}
		w.pipe = pipe
		w.st.ingestOpen = time.Since(t)
	}
	w.serve()
	return w, nil
}

// serve (re)binds the API handler to the world's engine and pipeline.
func (w *world) serve() {
	if w.pipe != nil {
		w.srv = api.NewWithConfig(w.eng, w.pipe, api.Config{})
	} else {
		w.srv = api.NewWithConfig(w.eng, nil, api.Config{})
	}
}

// repeatBuild runs build n times and returns the last value with every
// build's duration. Each earlier value is released, its reference
// dropped and the heap collected before the next build starts, so every
// build meets the same heap and no two systems are alive at once.
func repeatBuild[T any](n int, build func(i int) (T, error), release func(T)) (T, []time.Duration, error) {
	var last, zero T
	took := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			last = zero
			runtime.GC()
		}
		t := time.Now()
		v, err := build(i)
		if err != nil {
			return zero, took, err
		}
		took = append(took, time.Since(t))
		last = v
	}
	return last, took, nil
}

// setup builds the workload's system sp.builds times and keeps the
// last; setup_s is the median build.
func (r *run) setup(sp spec) (*world, error) {
	w, took, err := repeatBuild(sp.builds,
		func(i int) (*world, error) {
			return build(sp, filepath.Join(r.durableRoot, fmt.Sprintf("build%d", i)))
		},
		(*world).close)
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(took))
	for i, d := range took {
		secs[i] = d.Seconds()
	}
	r.setupS = median(secs)
	r.note("setup", "builds=%d median=%.4fs generate=%.1fms engine.New=%.1fms warmup=%.1fms ingest.Open=%.1fms",
		len(took), r.setupS, ms(w.st.generate), ms(w.st.engineNew), ms(w.st.warmup), ms(w.st.ingestOpen))
	return w, nil
}

// sink is the discarding ResponseWriter: no socket, no buffer growth.
// With body set it keeps the bytes, for the requests whose answer the
// harness checks.
type sink struct {
	hdr    http.Header
	status int
	n      int
	body   *bytes.Buffer
}

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}
func (s *sink) Write(p []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	s.n += len(p)
	if s.body != nil {
		s.body.Write(p)
	}
	return len(p), nil
}

// client is the single closed-loop caller: one request in flight,
// straight into Server.ServeHTTP.
type client struct {
	w        *world
	sink     sink
	keep     bytes.Buffer
	start    time.Time // when the last request was handed to ServeHTTP
	requests int       // requests and response bytes since the last reset
	bytes    int64
}

func newClient(w *world) *client {
	return &client{w: w, sink: sink{hdr: make(http.Header, 4)}}
}

func (c *client) serve(req *http.Request, body *bytes.Buffer) (time.Duration, int) {
	c.sink.status, c.sink.n, c.sink.body = 0, 0, body
	c.start = time.Now()
	c.w.srv.ServeHTTP(&c.sink, req)
	d := time.Since(c.start)
	c.requests++
	c.bytes += int64(c.sink.n)
	return d, c.sink.status
}

// do serves one request and returns its ServeHTTP time and status.
func (c *client) do(req *http.Request) (time.Duration, int) { return c.serve(req, nil) }

// fetch is do keeping the response body (valid until the next fetch).
func (c *client) fetch(req *http.Request) (time.Duration, int, []byte) {
	c.keep.Reset()
	d, status := c.serve(req, &c.keep)
	return d, status, c.keep.Bytes()
}

// phase accumulates the measured segments of a run: wall time, process
// CPU time and operations completed. The end-to-end timing metrics are
// its totals (and the percentiles of every sample it took); nothing
// inside it is discarded or weighted.
type phase struct {
	wall, cpu time.Duration
	ops       int
	t0        time.Time
	c0        time.Duration
}

func (p *phase) begin() { p.c0, p.t0 = cpuNow(), time.Now() }

func (p *phase) end(ops int) {
	p.wall += time.Since(p.t0)
	p.cpu += cpuNow() - p.c0
	p.ops += ops
}

// measured is what a workload's measured phase hands to finish. The
// read workloads and restart have one clock, so rate and cost are the
// same phase; churn's throughput is over its commits and its CPU over
// whole cycles.
type measured struct {
	rate  phase     // ops_per_s = rate.ops ÷ rate.wall
	cost  phase     // cpu_us_per_op = cost.cpu ÷ cost.ops
	ops   []float64 // operation times (ns): op_p50_us and op_p90_us
	reads []float64 // ServeHTTP times (ns) of the phase's GETs, for api.serve_*
}

// finish turns the measured phase into the run's metrics: the
// end-to-end set on an untraced run; on a traced run the layer probes
// run first and the per-layer set is reported instead. Every timing
// metric is over the whole phase: totals, and percentiles of every
// sample.
func (r *run) finish(p *prepared, m measured) error {
	if m.rate.ops == 0 || m.cost.ops == 0 || len(m.ops) == 0 {
		return fmt.Errorf("%s: the measured phase completed no operation", r.workload)
	}
	n := len(m.ops)
	r.note("phase", "measured_s=%.3f cpu_s=%.3f ops=%d op_samples=%d (p90 has %d beyond it) peak_rss_mb=%.0f",
		m.cost.wall.Seconds(), m.cost.cpu.Seconds(), m.cost.ops, n, n-int(math.Ceil(0.9*float64(n))), peakRSSMB())
	if r.tr != nil {
		r.metrics["api.resp_bytes_per_op"] = ratio(p.c.bytes, int64(p.c.requests))
		r.metrics["runtime.peak_rss_mb"] = peakRSSMB()
		r.tr.phaseSpans, r.tr.phaseOverhead = len(r.tr.spans), r.tr.overhead
		r.probesFrom = takeCounters()
		if err := r.layerProbes(p); err != nil {
			return err
		}
		r.layerMetrics(p, m)
		return nil
	}
	sorted := sortedCopy(m.ops)
	out := r.metrics
	out["setup_s"] = r.setupS
	out["ops_per_s"] = float64(m.rate.ops) / m.rate.wall.Seconds()
	out["cpu_us_per_op"] = us(m.cost.cpu) / float64(m.cost.ops)
	out["op_p50_us"] = percentile(sorted, 0.5) / 1e3
	out["op_p90_us"] = percentile(sorted, 0.9) / 1e3
	if out["live_heap_mb"] = r.heapMB; r.heapMB == 0 {
		m, sorted = measured{}, nil // the samples are the harness's, not the program's heap
		out["live_heap_mb"] = liveHeapMB()
		runtime.KeepAlive(p)
	}
	return nil
}
