package faultinject

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// okTransport answers every request with 200 and a marker body.
type okTransport struct{ calls int }

func (t *okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader("real")),
		Request:    req,
	}, nil
}

func get(t *testing.T, rt http.RoundTripper) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://host.example/doc", nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

func TestZeroConfigIsTransparent(t *testing.T) {
	in := New(Config{Seed: 1})
	next := &okTransport{}
	rt := in.Transport(next)
	for i := 0; i < 50; i++ {
		resp, err := get(t, rt)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("pass-through broke: resp=%v err=%v", resp, err)
		}
		resp.Body.Close()
	}
	if next.calls != 50 {
		t.Fatalf("next.calls = %d, want 50", next.calls)
	}
	if c := in.Counts(); c.Total() != 0 {
		t.Fatalf("zero config injected faults: %+v", c)
	}
}

func TestTransportErrorInjection(t *testing.T) {
	in := New(Config{Seed: 2, ErrorRate: 1})
	rt := in.Transport(&okTransport{})
	if _, err := get(t, rt); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c := in.Counts(); c.TransportErrors != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestTransportStatusInjection(t *testing.T) {
	in := New(Config{Seed: 3, StatusRate: 1})
	next := &okTransport{}
	resp, err := get(t, in.Transport(next))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 default", resp.StatusCode)
	}
	if next.calls != 0 {
		t.Fatal("status injection must short-circuit the wrapped transport")
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Fatalf("synthetic body = %q, want empty", body)
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	in := New(Config{Seed: 4, LatencyRate: 1, Latency: time.Hour})
	rt := in.Transport(&okTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://host.example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := rt.RoundTrip(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("latency injection ignored the request context")
	}
}

func TestDeterministicDecisionStream(t *testing.T) {
	cfg := Config{Seed: 42, ErrorRate: 0.3, StatusRate: 0.2, LatencyRate: 0.1, Latency: time.Microsecond}
	trace := func() []string {
		in := New(cfg)
		rt := in.Transport(&okTransport{})
		var out []string
		for i := 0; i < 200; i++ {
			resp, err := get(t, rt)
			switch {
			case err != nil:
				out = append(out, "err")
			case resp.StatusCode == http.StatusServiceUnavailable:
				out = append(out, "503")
				resp.Body.Close()
			default:
				out = append(out, "ok")
				resp.Body.Close()
			}
		}
		return out
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
	has := map[string]bool{}
	for _, v := range a {
		has[v] = true
	}
	if !has["err"] || !has["503"] || !has["ok"] {
		t.Fatalf("200 draws at 30%%/20%% rates should hit every outcome, got %v", has)
	}
}

func openTemp(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "data"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestFileWriteError(t *testing.T) {
	in := New(Config{Seed: 5, WriteErrorRate: 1})
	raw := openTemp(t)
	f := in.File(raw)
	n, err := f.Write([]byte("hello"))
	if !errors.Is(err, ErrInjected) || n != 0 {
		t.Fatalf("n=%d err=%v, want 0 bytes + ErrInjected", n, err)
	}
	info, err := raw.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("write error must land no bytes, file has %d", info.Size())
	}
	if c := in.Counts(); c.WriteErrors != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestFileTornWrite(t *testing.T) {
	in := New(Config{Seed: 6, TornWriteRate: 1})
	raw := openTemp(t)
	f := in.File(raw)
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n < 1 || n >= len(payload) {
		t.Fatalf("torn write persisted %d/%d bytes, want a strict prefix", n, len(payload))
	}
	got := make([]byte, n)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[:n]) {
		t.Fatalf("prefix mismatch: %q vs %q", got, payload[:n])
	}
	info, _ := raw.Stat()
	if info.Size() != int64(n) {
		t.Fatalf("file size %d, want exactly the torn prefix %d", info.Size(), n)
	}
}

func TestFileSyncError(t *testing.T) {
	in := New(Config{Seed: 8, SyncErrorRate: 1})
	f := in.File(openTemp(t))
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if c := in.Counts(); c.SyncErrors != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestSingleByteWriteNeverTorn(t *testing.T) {
	// A 1-byte write has no strict prefix; the torn path must not fire.
	in := New(Config{Seed: 9, TornWriteRate: 1})
	f := in.File(openTemp(t))
	if n, err := f.Write([]byte{0xff}); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestDisabledRatesDoNotShiftStream(t *testing.T) {
	// Enabling an unrelated fault kind must not consume decisions that
	// shift another kind's outcomes: rates ≤ 0 draw nothing.
	seq := func(cfg Config) []bool {
		in := New(cfg)
		out := make([]bool, 100)
		for i := range out {
			_, fail := in.writePlan(8)
			out[i] = fail
		}
		return out
	}
	a := seq(Config{Seed: 10, WriteErrorRate: 0.4})
	b := seq(Config{Seed: 10, WriteErrorRate: 0.4, LatencyRate: 0}) // explicit zero
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d shifted by a disabled rate", i)
		}
	}
}
