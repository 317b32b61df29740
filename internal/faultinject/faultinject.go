// Package faultinject is a deterministic, seed-driven fault harness for
// chaos-testing the crawl → ingest → serve pipeline.
//
// The paper's substrate is an open Semantic Web where remote agents are
// "slow, garbage, or gone" as the normal case (§2, §4.1) — and the local
// machine underneath the recommender is no more trustworthy: disks tear
// writes mid-record and fsync fails under pressure. Rather than hope those
// paths are exercised in production first, this package interposes on the
// two I/O seams the system already has:
//
//   - Transport wraps an http.RoundTripper and injects connection errors,
//     5xx statuses, and latency into crawler fetches.
//   - File wraps an *os.File as a frame.File, the handle both logs (wal,
//     store) append through, and injects write errors, torn writes (a
//     partial write followed by an error — the classic crash shape both
//     logs must recover from), and fsync failures.
//
// Every decision is drawn from one seeded PCG stream, so a chaos run is
// reproducible: same seed, same single-threaded call sequence → same
// faults. Reads are never perturbed — the chaos suite's invariant is that
// whatever was *acknowledged* survives byte-identically, and injecting
// read faults would test a different property.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the root of every synthetic failure; tests match it with
// errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets per-operation fault probabilities in [0,1]. Zero rates
// inject nothing, so the zero Config is a transparent pass-through.
type Config struct {
	// Seed initializes the decision stream. Two injectors with the same
	// Seed and Config make identical decisions in call order.
	Seed uint64

	// ErrorRate is the probability a RoundTrip fails outright with a
	// connection-level error.
	ErrorRate float64
	// StatusRate is the probability a RoundTrip short-circuits with Status
	// instead of reaching the wrapped transport.
	StatusRate float64
	// Status is the synthetic status code for StatusRate hits (default
	// 503).
	Status int
	// LatencyRate is the probability a RoundTrip sleeps Latency before
	// proceeding (bounded by the request context).
	LatencyRate float64
	// Latency is the injected delay for LatencyRate hits.
	Latency time.Duration

	// WriteErrorRate is the probability a file Write fails before any
	// byte lands.
	WriteErrorRate float64
	// TornWriteRate is the probability a file Write persists only a prefix
	// of the buffer and then fails — the on-disk shape of a crash
	// mid-append.
	TornWriteRate float64
	// SyncErrorRate is the probability Sync reports failure. The data may
	// or may not be durable; callers must treat the segment as suspect.
	SyncErrorRate float64
}

func (c Config) withDefaults() Config {
	if c.Status == 0 {
		c.Status = http.StatusServiceUnavailable
	}
	return c
}

// Counts tallies the faults an Injector has actually delivered, by kind.
type Counts struct {
	TransportErrors  uint64
	TransportStatus  uint64
	TransportLatency uint64
	WriteErrors      uint64
	TornWrites       uint64
	SyncErrors       uint64
}

// Total sums all injected faults.
func (c Counts) Total() uint64 {
	return c.TransportErrors + c.TransportStatus + c.TransportLatency +
		c.WriteErrors + c.TornWrites + c.SyncErrors
}

// Injector owns the seeded decision stream and hands out Transport and
// File wrappers that share it. Safe for concurrent use; under concurrency
// the stream is still consumed deterministically per lock acquisition
// order, so invariant-style assertions (not exact traces) are the right
// thing to test.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	counts Counts
}

// New creates an injector for cfg, seeding the decision stream from
// cfg.Seed.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed))}
}

// roll consumes one decision from the stream: true with probability rate.
// A rate ≤ 0 never fires and consumes nothing, keeping disabled fault
// kinds out of the stream entirely (so enabling one kind does not shift
// another kind's decisions).
func (in *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return rate >= 1 || in.rng.Float64() < rate
}

// Counts returns the faults delivered so far.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Transport wraps next with the injector's transport faults. A nil next
// uses http.DefaultTransport.
func (in *Injector) Transport(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{in: in, next: next}
}

type transport struct {
	in   *Injector
	next http.RoundTripper
}

// transportPlan is one RoundTrip's worth of decisions, drawn atomically so
// the per-request decision order is fixed: latency, then error, then
// status.
type transportPlan struct {
	sleep time.Duration
	fail  bool
	code  int
}

func (t *transport) plan() transportPlan {
	in := t.in
	in.mu.Lock()
	defer in.mu.Unlock()
	var p transportPlan
	if in.roll(in.cfg.LatencyRate) {
		p.sleep = in.cfg.Latency
		in.counts.TransportLatency++
	}
	if in.roll(in.cfg.ErrorRate) {
		p.fail = true
		in.counts.TransportErrors++
		return p
	}
	if in.roll(in.cfg.StatusRate) {
		p.code = in.cfg.Status
		in.counts.TransportStatus++
	}
	return p
}

// RoundTrip applies the planned faults, falling through to the wrapped
// transport when none fire.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.plan()
	if p.sleep > 0 {
		timer := time.NewTimer(p.sleep)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if p.fail {
		return nil, fmt.Errorf("%w: connection reset (%s)", ErrInjected, req.URL.Host)
	}
	if p.code != 0 {
		return &http.Response{
			Status:     fmt.Sprintf("%d %s", p.code, http.StatusText(p.code)),
			StatusCode: p.code,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("")),
			Request:    req,
		}, nil
	}
	return t.next.RoundTrip(req)
}

// File wraps f with the injector's I/O faults. The wrapper is a
// frame.File (write, positioned read, seek, truncate, sync, close), the
// WrapFile seam of both logs; only Write and Sync are ever perturbed.
func (in *Injector) File(f *os.File) *File {
	return &File{in: in, f: f}
}

// File is a fault-injecting *os.File wrapper; see Injector.File.
type File struct {
	in *Injector
	f  *os.File
}

// writePlan decides one write's fate: tornAt > 0 persists that prefix and
// fails; fail fails before any byte; otherwise the write passes through.
func (in *Injector) writePlan(n int) (tornAt int, fail bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n > 1 && in.roll(in.cfg.TornWriteRate) {
		in.counts.TornWrites++
		return 1 + in.rng.IntN(n-1), false
	}
	if in.roll(in.cfg.WriteErrorRate) {
		in.counts.WriteErrors++
		return 0, true
	}
	return 0, false
}

// Write applies write faults to the append path.
func (f *File) Write(p []byte) (int, error) {
	tornAt, fail := f.in.writePlan(len(p))
	if fail {
		return 0, fmt.Errorf("%w: write error", ErrInjected)
	}
	if tornAt > 0 {
		n, err := f.f.Write(p[:tornAt])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: torn write after %d/%d bytes", ErrInjected, n, len(p))
	}
	return f.f.Write(p)
}

// Sync applies fsync faults.
func (f *File) Sync() error {
	in := f.in
	in.mu.Lock()
	fire := in.roll(in.cfg.SyncErrorRate)
	if fire {
		in.counts.SyncErrors++
	}
	in.mu.Unlock()
	if fire {
		// The kernel may or may not have flushed; surface the ambiguity.
		_ = f.f.Sync()
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	return f.f.Sync()
}

// ReadAt passes through: reads are never perturbed.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// Seek passes through.
func (f *File) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

// Truncate passes through: it is the rollback primitive both logs use to
// recover from injected write faults, so failing it would conflate "fault
// happened" with "recovery impossible".
func (f *File) Truncate(size int64) error { return f.f.Truncate(size) }

// Close passes through.
func (f *File) Close() error { return f.f.Close() }
