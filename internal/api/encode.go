package api

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"

	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
)

// Append-style encoders for the five read shapes of the serving mix —
// recommendations, neighbors, profile, agent detail, product — and the
// two blocks they share, the page envelope and strategy.Result. Each
// takes the buffer so far and returns it extended with exactly the bytes
// json.Encoder with SetIndent("", "  ") writes for the struct the shape
// is documented by (recOut, peerOut, topicScore, agentDetail,
// productOut under page): two-space indent, "key": value, HTML-safe
// string escapes, encoding/json's float format, the trailing newline.
// encoding/json stays the oracle, not a fallback: encode_test.go runs
// both over the same values and requires equal bytes, so a new field goes
// into the struct tag *and* the encoder, and the test fails until the two
// agree.
//
// The bool each shape returns is false when a float is NaN or ±Inf, which
// encoding/json refuses; writeEncoded then writes nothing, as the encoder
// did.

// in1 … in4 open a line at nesting depth 1 … 4.
const (
	in1 = "\n  "
	in2 = "\n    "
	in3 = "\n      "
	in4 = "\n        "
)

const hexDigits = "0123456789abcdef"

// plainByte reports whether an ASCII byte stands for itself inside a JSON
// string as encoding/json writes one with HTML escaping on: everything
// from space up except the quote, the backslash and <, >, &.
func plainByte(c byte) bool {
	return c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Word-at-a-time byte tests: a uint64 holds eight bytes of a string,
// the first in the low byte.
const (
	lsbs = 0x0101010101010101 // 0x01 in every byte
	msbs = 0x8080808080808080 // 0x80 in every byte
)

// zeroBytes sets the top bit of the lowest zero byte of w, and of no
// byte below it. (A byte above the lowest zero may be flagged falsely: a
// borrow only runs upwards.)
func zeroBytes(w uint64) uint64 { return (w - lsbs) & ^w & msbs }

// plainPrefix returns the length of the longest prefix of s that
// encoding/json writes verbatim: bytes from space up to 0x7f other than
// the quote, the backslash and <, >, &. It tests eight bytes per step;
// the lowest flagged byte of a word is the first one that needs
// escaping.
//
//swrec:hotpath
func plainPrefix(s string) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		q := s[i : i+8]
		w := uint64(q[0]) | uint64(q[1])<<8 | uint64(q[2])<<16 | uint64(q[3])<<24 |
			uint64(q[4])<<32 | uint64(q[5])<<40 | uint64(q[6])<<48 | uint64(q[7])<<56
		special := w&msbs | // ≥ 0x80
			(w-' '*lsbs)&^w&msbs | // < 0x20, for bytes under 0x80
			zeroBytes(w^'"'*lsbs) | zeroBytes(w^'\\'*lsbs) |
			zeroBytes(w^'<'*lsbs) | zeroBytes(w^'>'*lsbs) | zeroBytes(w^'&'*lsbs)
		if special != 0 {
			return i + bits.TrailingZeros64(special)>>3
		}
	}
	for ; i < len(s) && s[i] < utf8.RuneSelf && plainByte(s[i]); i++ {
	}
	return i
}

// appendString appends s as a JSON string literal. The plain prefix is
// one copy; the byte loop runs from the first byte that needs escaping.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := plainPrefix(s); i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if plainByte(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default: // the other control characters, and <, >, &
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029': // valid JSON, invalid JavaScript
			b = append(b, s[start:i]...)
			b = append(b, `\u202`...)
			b = append(b, hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// finite reports whether encoding/json has a number for every x.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// appendElem starts element i of a list on a line of its own at indent in.
func appendElem(b []byte, i int, in string) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, in...)
}

// appendListEnd closes the list a '[' opened: on a line of its own at
// indent in after n > 0 elements, right where it opened after none.
func appendListEnd(b []byte, n int, in string) []byte {
	if n > 0 {
		b = append(b, in...)
	}
	return append(b, ']')
}

// pageOpen starts the list envelope (the page struct) up to its items,
// which the caller appends at depth 2.
const pageOpen = "{" + in1 + `"items": [`

// appendPageClose ends the envelope after n items: the total, and the
// strategy provenance block of a ladder answer. (The offset/limit window
// belongs to the directory pages, which encoding/json still writes.)
func appendPageClose(b []byte, n, total int, res *strategy.Result) []byte {
	b = appendListEnd(b, n, in1)
	b = append(b, ","+in1+`"total": `...)
	b = strconv.AppendInt(b, int64(total), 10)
	if res != nil {
		b = append(b, ","+in1+`"strategy": `...)
		b = appendResult(b, res)
	}
	return append(b, "\n}\n"...)
}

// appendResult appends a strategy.Result at depth 1.
func appendResult(b []byte, res *strategy.Result) []byte {
	b = append(b, "{"+in2+`"procedure": `...)
	b = appendString(b, string(res.Procedure))
	b = append(b, ","+in2+`"attempts": `...)
	if res.Attempts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range res.Attempts {
			a := &res.Attempts[i]
			b = appendElem(b, i, in3)
			b = append(b, "{"+in4+`"procedure": `...)
			b = appendString(b, string(a.Procedure))
			b = append(b, ","+in4+`"outcome": `...)
			b = appendString(b, string(a.Outcome))
			if a.Reason != "" {
				b = append(b, ","+in4+`"reason": `...)
				b = appendString(b, a.Reason)
			}
			b = append(b, in3+"}"...)
		}
		b = appendListEnd(b, len(res.Attempts), in2)
	}
	b = append(b, ","+in2+`"epoch": `...)
	b = strconv.AppendUint(b, res.Epoch, 10)
	if res.Degraded {
		b = append(b, ","+in2+`"degraded": true`...)
	}
	if res.Source != "" {
		b = append(b, ","+in2+`"source": `...)
		b = appendString(b, res.Source)
	}
	return append(b, in1+"}"...)
}

// appendRecommendations appends the /recommendations page: each
// recommendation with its product's catalog title, when it has one.
func appendRecommendations(b []byte, recs []core.Recommendation, comm *model.Community, res *strategy.Result) ([]byte, bool) {
	b = append(b, pageOpen...)
	for i := range recs {
		rc := &recs[i]
		if !finite(rc.Score) {
			return b, false
		}
		b = appendElem(b, i, in2)
		b = append(b, "{"+in3+`"Product": `...)
		b = appendString(b, string(rc.Product))
		b = append(b, ","+in3+`"Score": `...)
		b = appendFloat(b, rc.Score)
		b = append(b, ","+in3+`"Supporters": `...)
		b = strconv.AppendInt(b, int64(rc.Supporters), 10)
		if p := comm.Product(rc.Product); p != nil && p.Title != "" {
			b = append(b, ","+in3+`"title": `...)
			b = appendString(b, p.Title)
		}
		b = append(b, in2+"}"...)
	}
	return appendPageClose(b, len(recs), len(recs), res), true
}

// appendNeighbors appends the /neighbors page: the shown prefix of a
// ranking of total peers, each named through comm's symbol table.
func appendNeighbors(b []byte, peers []core.PeerRank, comm *model.Community, total int, res *strategy.Result) ([]byte, bool) {
	sym := comm.Symbols()
	b = append(b, pageOpen...)
	for i := range peers {
		p := &peers[i]
		if !finite(p.Trust, p.Sim, p.Weight) {
			return b, false
		}
		b = appendElem(b, i, in2)
		b = append(b, "{"+in3+`"Agent": `...)
		id, _ := sym.AgentID(p.Ord())
		b = appendString(b, string(id))
		b = append(b, ","+in3+`"Trust": `...)
		b = appendFloat(b, p.Trust)
		b = append(b, ","+in3+`"Sim": `...)
		b = appendFloat(b, p.Sim)
		b = append(b, ","+in3+`"SimOK": `...)
		b = strconv.AppendBool(b, p.SimOK)
		b = append(b, ","+in3+`"Weight": `...)
		b = appendFloat(b, p.Weight)
		b = append(b, in2+"}"...)
	}
	return appendPageClose(b, len(peers), total, res), true
}

// appendProfile appends the /profile page: the profile row's entries at
// the positions top, by qualified topic name.
func appendProfile(b []byte, prof *profmat.Row, top []int32, tax *taxonomy.Taxonomy) ([]byte, bool) {
	b = append(b, pageOpen...)
	for i, pos := range top {
		if !finite(prof.Vals[pos]) {
			return b, false
		}
		b = appendElem(b, i, in2)
		b = append(b, "{"+in3+`"topic": `...)
		b = appendString(b, tax.QualifiedName(taxonomy.Topic(prof.Keys[pos])))
		b = append(b, ","+in3+`"score": `...)
		b = appendFloat(b, prof.Vals[pos])
		b = append(b, in2+"}"...)
	}
	return appendPageClose(b, len(top), prof.NNZ(), nil), true
}

// appendAgent appends the /agents/{uri} detail: the directory summary
// followed by the agent's trust and rating statements, their targets
// named through comm. Every stated value is in [-1, +1], so the body is
// always encodable.
func appendAgent(b []byte, comm *model.Community, a *model.Agent) ([]byte, bool) {
	b = append(b, "{"+in1+`"id": `...)
	b = appendString(b, string(a.ID))
	if a.Name != "" {
		b = append(b, ","+in1+`"name": `...)
		b = appendString(b, a.Name)
	}
	b = append(b, ","+in1+`"trustOut": `...)
	b = strconv.AppendInt(b, int64(len(a.TrustedPeers())), 10)
	b = append(b, ","+in1+`"ratings": `...)
	b = strconv.AppendInt(b, int64(len(a.RatedProducts())), 10)

	b = append(b, ","+in1+`"trust": [`...)
	sym := comm.Symbols()
	trust := a.TrustedPeers()
	for i, e := range trust {
		dst, _ := sym.AgentID(e.Ord)
		b = appendElem(b, i, in2)
		b = append(b, "{"+in3+`"Src": `...)
		b = appendString(b, string(a.ID))
		b = append(b, ","+in3+`"Dst": `...)
		b = appendString(b, string(dst))
		b = append(b, ","+in3+`"Value": `...)
		b = appendFloat(b, e.Val)
		b = append(b, in2+"}"...)
	}
	b = appendListEnd(b, len(trust), in1)

	b = append(b, ","+in1+`"ratingStatements": [`...)
	ratings := a.RatedProducts()
	for i, e := range ratings {
		pid, _ := sym.ProductID(e.Ord)
		b = appendElem(b, i, in2)
		b = append(b, "{"+in3+`"Agent": `...)
		b = appendString(b, string(a.ID))
		b = append(b, ","+in3+`"Product": `...)
		b = appendString(b, string(pid))
		b = append(b, ","+in3+`"Value": `...)
		b = appendFloat(b, e.Val)
		b = append(b, in2+"}"...)
	}
	b = appendListEnd(b, len(ratings), in1)
	return append(b, "\n}\n"...), true
}

// appendProduct appends the /products/{id} catalog entry; tax is nil for
// a community without a taxonomy, which lists no topics.
func appendProduct(b []byte, p *model.Product, tax *taxonomy.Taxonomy) []byte {
	b = append(b, "{"+in1+`"id": `...)
	b = appendString(b, string(p.ID))
	if p.Title != "" {
		b = append(b, ","+in1+`"title": `...)
		b = appendString(b, p.Title)
	}
	if p.ISBN != "" {
		b = append(b, ","+in1+`"isbn": `...)
		b = appendString(b, p.ISBN)
	}
	if tax != nil && len(p.Topics) > 0 {
		b = append(b, ","+in1+`"topics": [`...)
		for i, d := range p.Topics {
			b = appendString(appendElem(b, i, in2), tax.QualifiedName(d))
		}
		b = appendListEnd(b, len(p.Topics), in1)
	}
	return append(b, "\n}\n"...)
}

// encodeBufs holds the buffers writeEncoded lends the encoders; a
// response is written out (and, for the response cache, copied) before
// its buffer goes back.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}
