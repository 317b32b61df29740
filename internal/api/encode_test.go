package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"unicode/utf8"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/datagen"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
)

// The oracle: the structs whose tags define the five hand-encoded shapes
// (core.PeerRank, strategy.Result and page are the production types), fed
// to the encoder writeJSON uses. A field added here and not in encode.go,
// or the other way round, fails TestEncodersMatchEncodingJSON.

type recOut struct {
	core.Recommendation
	Title string `json:"title,omitempty"`
}

type topicScore struct {
	Topic string  `json:"topic"`
	Score float64 `json:"score"`
}

type agentDetail struct {
	agentSummary
	Trust   []model.TrustStatement  `json:"trust"`
	Ratings []model.RatingStatement `json:"ratingStatements"`
}

type productOut struct {
	ID     model.ProductID `json:"id"`
	Title  string          `json:"title,omitempty"`
	ISBN   string          `json:"isbn,omitempty"`
	Topics []string        `json:"topics,omitempty"`
}

// oracle encodes v the way writeJSON does; nil when encoding/json refuses.
func oracle(v any) []byte {
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if enc.Encode(v) != nil {
		return nil
	}
	return out.Bytes()
}

func oracleRecommendations(recs []core.Recommendation, comm *model.Community, res *strategy.Result) any {
	items := make([]recOut, 0, len(recs))
	for _, rc := range recs {
		ro := recOut{Recommendation: rc}
		if p := comm.Product(rc.Product); p != nil {
			ro.Title = p.Title
		}
		items = append(items, ro)
	}
	return page{Items: items, Total: len(items), Strategy: res}
}

func oracleNeighbors(peers []core.PeerRank, total int, res *strategy.Result) any {
	if peers == nil {
		peers = []core.PeerRank{}
	}
	return page{Items: peers, Total: total, Strategy: res}
}

func oracleProfile(prof *profmat.Row, top []int32, tax *taxonomy.Taxonomy) any {
	items := make([]topicScore, 0, len(top))
	for _, i := range top {
		items = append(items, topicScore{Topic: tax.QualifiedName(taxonomy.Topic(prof.Keys[i])), Score: prof.Vals[i]})
	}
	return page{Items: items, Total: prof.NNZ()}
}

func oracleAgent(comm *model.Community, a *model.Agent) any {
	return agentDetail{agentSummary: summarize(comm, a.ID), Trust: comm.TrustStatements(a), Ratings: comm.RatingStatements(a)}
}

func oracleProduct(p *model.Product, tax *taxonomy.Taxonomy) any {
	out := productOut{ID: p.ID, Title: p.Title, ISBN: p.ISBN}
	if tax != nil {
		for _, d := range p.Topics {
			out.Topics = append(out.Topics, tax.QualifiedName(d))
		}
	}
	return out
}

// hostile strings and floats: everything encoding/json escapes or formats
// specially.
var (
	hostileStrings = []string{"", "<b>&amp;</b>", `"quoted\back"`, "\x00\x01\x1f\b\f\n\r\t", "bad\xffutf8\xc3", "line\u2028para\u2029", "naïve ☃ 𝄞", "\x7f~ "}
	hostileFloats  = []float64{0, math.Copysign(0, -1), 1e-7, -9.99e-7, 1e-6, 1e21, 9.99e20, 5e-324, math.MaxFloat64, -0.1, 1.0 / 3, 123456789.125, 1e-10, 1e100}
)

// encoderFixture is newTestServer's community plus what the generator
// never produces: an agent no rung finds peers for, a product without
// topics, and names and titles full of bytes JSON must escape.
func encoderFixture(t *testing.T) (*Server, *model.Community, *engine.Engine, model.AgentID, model.ProductID) {
	t.Helper()
	comm := testCommunity(t, 60, 80)
	cold := datagen.InjectColdStart(comm)
	bare := comm.AddProduct(model.Product{ID: "urn:x:no<topics>", Title: `A "title" & <more>`}).ID
	tax := comm.Taxonomy()
	odd, err := tax.Add(taxonomy.Root, `R&D "quoted" <naïve>`)
	if err != nil {
		t.Fatal(err)
	}
	comm.AddProduct(model.Product{ID: "urn:x:odd", ISBN: "0-306-40615-2", Topics: []taxonomy.Topic{odd, comm.Product(comm.Products()[0]).Topics[0]}})
	a0 := comm.AddAgent(comm.Agents()[0])
	a0.Name = "Zoë <script>\u2028"
	if err := comm.SetRating(a0.ID, "urn:x:odd", 1e-7); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(comm, core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng), comm, eng, cold, bare
}

// bothWays answers target up to the encoding and encodes the same values
// with the hand-written encoder and with encoding/json. handEncoded is
// false for a shape writeJSON still serves.
func bothWays(t *testing.T, s *Server, snap *engine.Snapshot, target string) (ep endpoint, got, want []byte, handEncoded bool) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	ep, _, arg := route(http.MethodGet, req.URL.EscapedPath())
	rec := httptest.NewRecorder()
	c := &call{ResponseWriter: rec, r: req, arg: arg, status: http.StatusOK}
	comm := snap.Community()
	var ok, fin bool
	switch ep {
	case epRecommendations:
		var recs []core.Recommendation
		var res *strategy.Result
		if recs, res, ok = s.recommendations(c, snap); ok {
			got, fin = appendRecommendations(nil, recs, comm, res)
			want = oracle(oracleRecommendations(recs, comm, res))
		}
	case epNeighbors:
		var peers []core.PeerRank
		var total int
		var res *strategy.Result
		if peers, total, res, ok = s.neighbors(c, snap); ok {
			got, fin = appendNeighbors(nil, peers, total, res)
			want = oracle(oracleNeighbors(peers, total, res))
		}
	case epProfile:
		var prof *profmat.Row
		var top []int32
		if prof, top, ok = s.profile(c, snap); ok {
			got, fin = appendProfile(nil, prof, top, comm.Taxonomy())
			want = oracle(oracleProfile(prof, top, comm.Taxonomy()))
		}
	case epAgent:
		var a *model.Agent
		if a, ok = agentOf(c, snap); ok {
			got, fin = appendAgent(nil, comm, a)
			want = oracle(oracleAgent(comm, a))
		}
	case epProduct:
		id, _ := url.PathUnescape(arg)
		p := comm.Product(model.ProductID(id))
		ok, fin = p != nil, true
		if ok {
			got = appendProduct(nil, p, comm.Taxonomy())
			want = oracle(oracleProduct(p, comm.Taxonomy()))
		}
	default:
		return ep, nil, nil, false
	}
	if !ok || !fin {
		t.Fatalf("%s: not answered (status %d, finite %v): %s", target, rec.Code, fin, rec.Body)
	}
	return ep, got, want, true
}

// TestEncodersMatchEncodingJSON is the contract of encode.go: over the
// response cache's URL spread and the corners it lacks, the hand-written
// encoders produce, byte for byte, what json.Encoder with SetIndent
// produces for the same values — and that is what the server sends.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	s, comm, eng, cold, bare := encoderFixture(t)
	a0 := comm.Agents()[0]
	targets := append(cacheableTargets(comm),
		agentPath(a0, "/recommendations?n=0"),
		agentPath(a0, "/neighbors?n=0"),
		agentPath(a0, "/profile?n=0"),
		agentPath(a0, "/neighbors?strategy=trust-hop-widening"), // a pinned rung
		agentPath(cold, ""),                                     // "trust": [], "ratingStatements": []
		agentPath(cold, "/profile"),                             // "items": []
		agentPath(cold, "/neighbors?strategy=full-synthesis"),   // no peers: "items": [], procedure none
		agentPath(cold, "/recommendations?strategy=full-synthesis"),
		agentPath(cold, "/recommendations"),
		// Asked after a0's answers above are cached, so these carry the
		// degraded marker and a source.
		agentPath(a0, "/recommendations?strategy=degraded-cache"),
		agentPath(a0, "/neighbors?strategy=degraded-cache"),
		"/v1/products/"+url.PathEscape(string(bare)), // no topics, no ISBN
		"/v1/products/urn:x:odd",                     // a topic name JSON must escape
	)
	shapes := make(map[endpoint]int)
	var sawEmpty, sawSource, sawReason bool
	for _, target := range targets {
		ep, got, want, handEncoded := bothWays(t, s, eng.Snapshot(), target)
		if !handEncoded {
			continue
		}
		shapes[ep]++
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the encoder and encoding/json disagree\n%s\n--- encoding/json ---\n%s", target, got, want)
		}
		if served := serve(s, http.MethodGet, target); served.Code != http.StatusOK || !bytes.Equal(served.Body.Bytes(), want) {
			t.Fatalf("%s: served %d\n%s\n--- encoding/json ---\n%s", target, served.Code, served.Body, want)
		}
		sawEmpty = sawEmpty || bytes.Contains(got, []byte(`"items": []`))
		sawSource = sawSource || bytes.Contains(got, []byte(`"degraded": true`)) && bytes.Contains(got, []byte(`"source": "`))
		sawReason = sawReason || bytes.Contains(got, []byte(`"reason": "`)) && bytes.Contains(got, []byte(`\u003c`))
	}
	for _, ep := range []endpoint{epRecommendations, epNeighbors, epProfile, epAgent, epProduct} {
		if shapes[ep] < 3 {
			t.Errorf("%s: only %d targets", endpointNames[ep], shapes[ep])
		}
	}
	if !sawEmpty || !sawSource || !sawReason {
		t.Errorf("spread lacks a corner: empty items %v, degraded with source %v, a reason with an escaped < %v", sawEmpty, sawSource, sawReason)
	}
}

// TestEncodersMatchOnHostileValues feeds the encoders values no community
// in the tests holds: every string class encoding/json escapes and every
// float class it formats specially, in every string and float field.
func TestEncodersMatchOnHostileValues(t *testing.T) {
	tax := taxonomy.New("Books")
	comm := model.NewCommunity(tax)
	str := func(i int) string { return hostileStrings[i%len(hostileStrings)] }
	flt := func(i int) float64 { return hostileFloats[i%len(hostileFloats)] }

	var peers []core.PeerRank
	var recs []core.Recommendation
	agent := comm.AddAgent("http://x/a")
	agent.Name = str(1)
	for i := 0; i < len(hostileStrings)*len(hostileFloats); i++ {
		peers = append(peers, core.PeerRank{Agent: model.AgentID(str(i)), Trust: flt(i), Sim: flt(i + 1), SimOK: i%2 == 0, Weight: flt(i + 2)})
		pid := model.ProductID(fmt.Sprintf("urn:%d:%s", i, str(i)))
		topic := tax.MustAdd(taxonomy.Root, fmt.Sprintf("%d %s", i, strings.ReplaceAll(str(i), "/", "|")))
		comm.AddProduct(model.Product{ID: pid, Title: str(i + 3), ISBN: str(i + 4), Topics: []taxonomy.Topic{topic, taxonomy.Root}})
		recs = append(recs, core.Recommendation{Product: pid, Score: flt(i), Supporters: i - 3})
		// A statement outside [-1, +1] is refused by the setter.
		_ = comm.SetRating(agent.ID, pid, flt(i))
		_ = comm.SetTrust(agent.ID, model.AgentID(str(i)), flt(i+5))
	}
	recs = append(recs, core.Recommendation{Product: "urn:not-cataloged", Score: 1})
	res := &strategy.Result{Procedure: strategy.Procedure(str(1)), Epoch: math.MaxUint64, Degraded: true, Source: str(2)}
	for i := range hostileStrings {
		res.Attempts = append(res.Attempts, strategy.Attempt{Procedure: strategy.Procedure(str(i)), Outcome: strategy.Outcome(str(i + 1)), Reason: str(i + 2)})
	}
	prof := &profmat.Row{}
	var top []int32
	for i, d := range tax.Topics() {
		prof.Keys, prof.Vals = append(prof.Keys, int32(d)), append(prof.Vals, flt(i))
		top = append(top, int32(i))
	}

	check := func(name string, got []byte, ok bool, v any) {
		t.Helper()
		if want := oracle(v); !ok || !bytes.Equal(got, want) {
			t.Errorf("%s (ok=%v)\n%s\n--- encoding/json ---\n%s", name, ok, got, want)
		}
	}
	for _, r := range []*strategy.Result{res, nil, {Procedure: strategy.None}, {Attempts: []strategy.Attempt{}}} {
		got, ok := appendNeighbors(nil, peers, -1, r)
		check("neighbors", got, ok, oracleNeighbors(peers, -1, r))
		got, ok = appendRecommendations(nil, recs, comm, r)
		check("recommendations", got, ok, oracleRecommendations(recs, comm, r))
	}
	got, ok := appendProfile(nil, prof, top, tax)
	check("profile", got, ok, oracleProfile(prof, top, tax))
	got, ok = appendAgent(nil, comm, agent)
	check("agent", got, ok, oracleAgent(comm, agent))
	for _, pid := range comm.Products() {
		p := comm.Product(pid)
		check("product", appendProduct(nil, p, tax), true, oracleProduct(p, tax))
		check("product, no taxonomy", appendProduct(nil, p, nil), true, oracleProduct(p, nil))
	}
	// The encoders append: what the buffer held stays.
	if got, _ := appendNeighbors([]byte("kept"), peers[:2], 2, res); !bytes.Equal(got[4:], oracle(oracleNeighbors(peers[:2], 2, res))) || string(got[:4]) != "kept" {
		t.Errorf("appendNeighbors overwrote its buffer's prefix: %s", got)
	}
}

// TestNonFiniteFloatSendsNothing: encoding/json refuses NaN and ±Inf, so
// writeJSON sent a 200 with no body and stored nothing. The encoders
// report such a value and writeEncoded does the same.
func TestNonFiniteFloatSendsNothing(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		peers := []core.PeerRank{{Agent: "a", Trust: 1}, {Agent: "b", Sim: f}}
		if oracle(oracleNeighbors(peers, 2, nil)) != nil {
			t.Fatalf("encoding/json encodes %v", f)
		}
		old := &call{ResponseWriter: httptest.NewRecorder(), status: http.StatusOK, keep: true}
		writeJSON(old, oracleNeighbors(peers, 2, nil))

		rec := httptest.NewRecorder()
		c := &call{ResponseWriter: rec, status: http.StatusOK, keep: true}
		ok := true
		c.writeEncoded(func(b []byte) ([]byte, bool) {
			b, ok = appendNeighbors(b, peers, 2, nil)
			return b, ok
		})
		if ok || rec.Body.Len() != 0 || c.body != nil || rec.Code != http.StatusOK {
			t.Errorf("%v: ok=%v, sent %d bytes, kept %d, status %d", f, ok, rec.Body.Len(), len(c.body), rec.Code)
		}
		if got, want := rec.Header(), old.ResponseWriter.Header(); got.Get("Content-Type") != want.Get("Content-Type") {
			t.Errorf("%v: Content-Type %q, writeJSON set %q", f, got.Get("Content-Type"), want.Get("Content-Type"))
		}
		for name, ok := range map[string]bool{
			"recommendations": second(appendRecommendations(nil, []core.Recommendation{{Score: f}}, model.NewCommunity(nil), nil)),
			"profile":         second(appendProfile(nil, &profmat.Row{Keys: []int32{0}, Vals: []float64{f}}, []int32{0}, taxonomy.New("Books"))),
		} {
			if ok {
				t.Errorf("%s: %v reported as encodable", name, f)
			}
		}
	}
}

func second(_ []byte, ok bool) bool { return ok }

// escapable lists one spelling of every class of input appendString must
// not copy verbatim: each control byte, the quote and the backslash, the
// three HTML-unsafe bytes, a stray continuation byte, an invalid lead
// byte and U+2028.
func escapable() []string {
	out := []string{`"`, `\`, "<", ">", "&", "\x80", "\xff", "\u2028"}
	for c := 0; c < 0x20; c++ {
		out = append(out, string(rune(c)))
	}
	return out
}

// plainFill is ASCII that stands for itself in JSON, the neighbours of the
// escaped bytes among it.
const plainFill = "!#%'=?[]~\x7f aZ09;:!#%'=?[]~\x7f aZ09;:"

// placed returns plainFill[:n] with x written over it at offset at.
func placed(n, at int, x string) string {
	return plainFill[:at] + x + plainFill[at+len(x):n]
}

// FuzzAppendString pins appendString to encoding/json on any string. The
// seeds put every escapable class at every offset of the first two
// eight-byte words plainPrefix tests.
func FuzzAppendString(f *testing.F) {
	for _, s := range append(hostileStrings, "<>&", `"`, `\`, "\xff", "\u2028", "\xe2\x80", "\xed\xa0\x80") {
		f.Add(s)
	}
	for c := 0; c < 0x20; c++ {
		f.Add(string(rune(c)))
	}
	for _, x := range escapable() {
		for at := 0; at < 16; at++ {
			f.Add(placed(24, at, x))
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	})
}

// TestAppendStringWordScan runs the word scan's cases exhaustively: every
// escapable class at every offset of every string of length 0–17 (the
// whole words, and the byte tail after them), and every pair of classes
// in one 16-byte string, against encoding/json — and plainPrefix against
// the byte-at-a-time definition.
func TestAppendStringWordScan(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		plain := 0
		for plain < len(s) && s[plain] < utf8.RuneSelf && plainByte(s[plain]) {
			plain++
		}
		if got := plainPrefix(s); got != plain {
			t.Fatalf("plainPrefix(%q) = %d, want %d", s, got, plain)
		}
	}
	classes := escapable()
	for n := 0; n <= 17; n++ {
		check(plainFill[:n])
		for _, x := range classes {
			for at := 0; at+len(x) <= n; at++ {
				check(placed(n, at, x))
			}
		}
	}
	for _, x := range classes {
		for at := 0; at+len(x) <= 24; at++ {
			check(placed(24, at, x))
		}
	}
	for _, x := range classes {
		for _, y := range classes {
			for i := 0; i+len(x) <= 16; i++ {
				for j := i + len(x); j+len(y) <= 16; j++ {
					s := []byte(plainFill[:16])
					copy(s[i:], x)
					copy(s[j:], y)
					check(string(s))
				}
			}
		}
	}
}

// missAllocCeiling is the committed allocation ceiling of one
// body-cache miss over warm engine caches, per shape (39 on the serving
// mix before the hand-written encoders), one above what each measures.
// What is left is the request itself: the call, the escaped path and the
// unescaped URI, the ladder's provenance, and the stored copy of the body
// with its cache key and entry.
var missAllocCeiling = map[string]float64{
	"/recommendations?n=10": 12,
	"/neighbors?n=25":       12,
	"/profile?n=15":         11,
	"":                      10,
	"product":               7,
}

// TestMissAllocations holds a miss of each hand-encoded shape to its
// ceiling: every run asks a URL the response cache has not seen.
func TestMissAllocations(t *testing.T) {
	s, comm, _ := newTestServer(t)
	a := comm.Agents()[0]
	w := &reusedWriter{hdr: make(http.Header)}
	const runs = 100
	for suffix, ceiling := range missAllocCeiling {
		target, sep := agentPath(a, suffix), "&"
		switch suffix {
		case "":
			sep = "?"
		case "product":
			target, sep = "/v1/products/"+url.PathEscape(string(comm.Products()[0])), "?"
		}
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil)) // warm the engine's caches
		reqs := make([]*http.Request, runs+1)                            // AllocsPerRun's warm-up run takes one
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("%s%sfresh=%d", target, sep, i), nil)
		}
		next, misses := 0, counter("swrec_engine", "body_miss")
		allocs := testing.AllocsPerRun(runs, func() {
			s.ServeHTTP(w, reqs[next])
			next++
		})
		if got := counter("swrec_engine", "body_miss") - misses; got != runs+1 {
			t.Fatalf("%s: %d of %d requests ran a handler", target, got, runs+1)
		}
		if allocs > ceiling {
			t.Errorf("%s: %v allocations per miss, ceiling %v", target, allocs, ceiling)
		}
		t.Logf("%s: %v allocations per miss", target, allocs)
	}
}
