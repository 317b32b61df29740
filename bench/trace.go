package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call. Spans are recorded from the harness only,
// around calls into the program's exported functions.
//
// A real span carries the clock times of the call. A replayed span is a
// direct call of a function the parent request reached, made right
// after the parent returned; its duration is real, and its start is
// rebased into the parent's interval (children laid end to end from the
// parent's start) so that self time — a span minus the part of it its
// children cover — means the same for both kinds.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // 0 = a request's root span
	Req      int    `json:"req"`    // shared by every span of one request
	Replayed bool   `json:"replayed,omitempty"`

	cursor int64 // where the next replayed child starts
}

// tracer keeps spans and per-metric samples in memory until the run
// ends. Every method is safe on a nil tracer (an untraced run) and then
// records nothing.
type tracer struct {
	epoch    time.Time
	spans    []span
	reqs     int
	samples  map[string][]float64
	overhead time.Duration // harness time spent replaying reads, which happens inside the phase's clock

	// What the measured phase had recorded when it ended; the probes add
	// to spans and overhead after that.
	phaseSpans    int
	phaseOverhead time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), samples: make(map[string][]float64)}
}

func (t *tracer) sample(metric string, v float64) {
	if t != nil {
		t.samples[metric] = append(t.samples[metric], v)
	}
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	if s.Parent == 0 {
		t.reqs++
		s.Req = t.reqs
	} else {
		s.Req = t.spans[s.Parent-1].Req
	}
	s.cursor = s.Start
	t.spans = append(t.spans, s)
	return s.ID
}

// span records a completed real call.
func (t *tracer) span(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	at := start.Sub(t.epoch).Nanoseconds()
	return t.add(span{Name: name, Parent: parent, Start: at, End: at + d.Nanoseconds()})
}

// open reserves a root span whose interval is not known yet, so that
// the calls made inside it can name it as their parent; close fills it.
func (t *tracer) open(name string) int {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name})
}

func (t *tracer) close(id int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.Start = start.Sub(t.epoch).Nanoseconds()
	s.End = s.Start + d.Nanoseconds()
}

// timed runs fn and records it as a real span under parent.
func (t *tracer) timed(name string, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	return t.span(name, parent, start, d), d
}

// replay runs fn — a direct call of something the parent reached — and
// records it as a child rebased to follow the parent's earlier children.
func (t *tracer) replay(name string, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t == nil {
		return 0, d
	}
	p := &t.spans[parent-1]
	at := p.cursor
	p.cursor += d.Nanoseconds()
	return t.add(span{Name: name, Parent: parent, Start: at, End: at + d.Nanoseconds(), Replayed: true}), d
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// count once; a child reaching outside the parent counts only for the
// part inside.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// coverage is Σ child spans ÷ Σ parent spans over the root spans that
// have children: near 1 means the calls the harness can make from
// outside explain the request; well below 1 means time it cannot see
// (on warm-read, the handler's own routing, parsing and encoding).
func coverage(spans []span) float64 {
	kids := make(map[int]int64)
	for _, s := range spans {
		kids[s.Parent] += s.End - s.Start
	}
	var parents, children int64
	for _, s := range spans {
		if c, ok := kids[s.ID]; ok && s.Parent == 0 {
			parents += s.End - s.Start
			children += c
		}
	}
	if parents == 0 {
		return 0
	}
	return float64(children) / float64(parents)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
