package trust

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"swrec/internal/model"
)

// Peer order is the order of every ranked peer list on the serving path
// — a metric's trust ranks, rank synthesis's weighted peers: descending
// score, ties by ascending agent URI. An element names its peer by
// ordinal, so the callers hand in ids, the community's ordinal → URI
// table, and a tie reads both URIs there. SortPeers and TopPeers produce
// the order without sorting the structs. Each element becomes one uint64 word, its
// score's order-preserving bits (negated, so an ascending sort puts the
// best first) above its index; one sort of the words then orders the
// elements, and only a run of words whose truncated scores tie is
// settled by the comparator, full score first, then URI. The words are
// pooled, so neither call allocates once the pool is warm, and a long
// tie — every rank is 1 under Advogato and without a trust metric — is
// one n log n sort of its run, as the comparator sort was.

// peerWords recycles the word arrays between sorts.
var peerWords sync.Pool

// SortPeers sorts xs into peer order in place: descending score, ties by
// ascending agent URI.
func SortPeers[T any](xs []T, score func(*T) float64, ord func(*T) int32, ids []model.AgentID) {
	if len(xs) < 2 {
		return
	}
	p, w := peerOrder(xs, len(xs), score, ord, ids)
	// Apply the order along its cycles: position j takes the element at
	// words[j]; a visited position has its word's top bit set, which no
	// index reaches.
	const seen = 1 << 63
	for i := range xs {
		if w[i]&seen != 0 {
			continue
		}
		first := xs[i]
		j := i
		for {
			k := int(w[j])
			w[j] |= seen
			if k == i {
				xs[j] = first
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
	peerWords.Put(p)
}

// TopPeers fills dst with the len(dst) first elements of xs in peer
// order and leaves xs as it is; len(dst) must not exceed len(xs). Only
// the ties that reach into the kept prefix are settled.
func TopPeers[T any](dst, xs []T, score func(*T) float64, ord func(*T) int32, ids []model.AgentID) {
	if len(dst) == 0 {
		return
	}
	p, w := peerOrder(xs, len(dst), score, ord, ids)
	for j := range dst {
		dst[j] = xs[w[j]]
	}
	peerWords.Put(p)
}

// peerOrder returns pooled words, w in the array p holds, whose first
// keep entries are the indices of xs in peer order; the order of the rest
// is unspecified. The caller puts p back.
func peerOrder[T any](xs []T, keep int, score func(*T) float64, ord func(*T) int32, ids []model.AgentID) (p *[]uint64, w []uint64) {
	n := len(xs)
	p, _ = peerWords.Get().(*[]uint64)
	if p == nil || cap(*p) < n {
		p = new([]uint64)
		*p = make([]uint64, n)
	}
	w = (*p)[:n]
	shift := uint(bits.Len(uint(n - 1)))
	for i := range xs {
		w[i] = descBits(score(&xs[i]))>>shift<<shift | uint64(i)
	}
	slices.Sort(w)
	idx := uint64(1)<<shift - 1
	for lo := 0; lo < keep; {
		hi := lo + 1
		for hi < n && w[hi]>>shift == w[lo]>>shift {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(w[lo:hi], func(a, b uint64) int {
				x, y := &xs[a&idx], &xs[b&idx]
				switch sx, sy := score(x), score(y); {
				case sx > sy:
					return -1
				case sx < sy:
					return 1
				}
				return strings.Compare(string(ids[ord(x)]), string(ids[ord(y)]))
			})
		}
		lo = hi
	}
	for i := range w {
		w[i] &= idx
	}
	return p, w
}

// descBits maps f to a word whose unsigned order is f's descending order,
// with -0 and +0 one value, as the comparator has them.
func descBits(f float64) uint64 {
	if f == 0 {
		f = 0 // -0 → +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return b // negative: a larger magnitude sorts later
	}
	return ^b &^ (1 << 63) // non-negative: a larger value sorts earlier
}
