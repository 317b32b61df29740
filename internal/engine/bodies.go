package engine

import "strings"

// The response-body cache. Within one epoch the community is fixed, so
// the bytes the API layer encodes for a GET are a pure function of
// (snapshot, URL) whenever the answer did not depend on the clock. The
// snapshot keeps those bytes, keyed by the URL exactly as it arrived —
// two spellings of one request (reordered parameters, a different
// escaping) are two entries that hold equal bytes, which costs budget
// but never correctness, and probing needs no canonicalisation and no
// allocation. What may be stored is the API layer's decision; the engine
// only bounds it.
const (
	// bodyBudget bounds the bytes one snapshot keeps: every entry's key,
	// body and bodyEntryOverhead. The engine retains two snapshots
	// (current and previous), so the process holds at most twice this.
	// DESIGN.md §8 "Warm path" has the sweep that chose it.
	bodyBudget = 8 << 20
	// MaxBodyEntry is the largest entry (key + body) worth keeping: one
	// unbounded listing (neighbors?n=0 is ~250 KB at 2,000 agents) must
	// not evict a hundred ordinary answers.
	MaxBodyEntry = 64 << 10
	// bodyEntryOverhead is what an entry costs beyond its key and body:
	// the cache entry, its share of the map, and the allocator's rounding
	// of the key copies and the body (~350 B measured at warm-read's mean
	// /recommendations size by TestBodyEntryChargeBoundsHeap). Charging it
	// keeps the budget a bound on heap, not just on payload, when the
	// bodies are small.
	bodyEntryOverhead = 512
)

// bodyKey is a request URL as net/http parsed it off the wire.
type bodyKey struct {
	path, rawPath, rawQuery string
}

// storedBody is one encoded 200 response. tag is the API layer's own
// label for the entry (its endpoint class), opaque here.
type storedBody struct {
	tag  uint8
	data []byte
}

// Body returns the response stored for the URL, if any. The returned
// bytes are shared and must not be modified.
//
//swrec:hotpath
func (s *Snapshot) Body(path, rawPath, rawQuery string) (body []byte, tag uint8, ok bool) {
	b, ok := s.bodies.get(bodyKey{path, rawPath, rawQuery})
	if !ok {
		bodyMissStat.Add(1)
		return nil, 0, false
	}
	bodyHitStat.Add(1)
	return b.data, b.tag, true
}

// StoreBody keeps body as the response to the URL for the rest of this
// snapshot's life, evicting by SIEVE (sieveCache) past the byte budget.
// The snapshot takes ownership of body; the key strings are copied so
// an entry never pins a request's buffers. Entries over MaxBodyEntry are
// dropped.
func (s *Snapshot) StoreBody(path, rawPath, rawQuery string, tag uint8, body []byte) {
	size := len(path) + len(rawPath) + len(rawQuery) + len(body)
	if size > MaxBodyEntry {
		return
	}
	key := bodyKey{strings.Clone(path), strings.Clone(rawPath), strings.Clone(rawQuery)}
	s.bodies.addWeighted(key, storedBody{tag: tag, data: body}, size+bodyEntryOverhead)
	bodyBytesStat.Add(int64(size))
}
