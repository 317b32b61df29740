package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/faultinject"
	"swrec/internal/frame"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
)

func testOptions() core.Options {
	return core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}
}

func testConfig() engine.Config {
	return engine.Config{ComputeBudget: time.Second}
}

// testCommunity builds a Fig1-taxonomy community with a trust chain,
// cross edges, and ratings over a two-book catalog — the same shape the
// chaos suite crawls, minus the network.
func testCommunity(t testing.TB, n int) *model.Community {
	t.Helper()
	tax := taxonomy.Fig1()
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash", ISBN: "9780553380958", Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis", ISBN: "9780521386326", Topics: []taxonomy.Topic{alg}})
	pids := []model.ProductID{"urn:isbn:9780553380958", "urn:isbn:9780521386326"}
	name := func(i int) model.AgentID { return model.AgentID(fmt.Sprintf("http://ckpt.example/people/a%d", i)) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		c.AddAgent(name(i)).Name = fmt.Sprintf("Agent %d", i)
	}
	for i := 0; i < n; i++ {
		if i+1 < n {
			must(c.SetTrust(name(i), name(i+1), 0.5+float64(i%5)/10))
		}
		if j := (i * 7) % n; j != i && j != i+1 {
			must(c.SetTrust(name(i), name(j), 0.4))
		}
		must(c.SetRating(name(i), pids[i%len(pids)], float64(i%19)/9-1))
	}
	return c
}

// warmEngine builds a serving engine and touches every agent so the
// peers/profiles caches are populated — a checkpoint captured from it
// exercises every section of the format.
func warmEngine(t testing.TB, comm *model.Community) *engine.Engine {
	t.Helper()
	eng, err := engine.New(comm, testOptions(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	for _, id := range comm.Agents() {
		if _, err := snap.Recommend(id, 5, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func testImage(t testing.TB, seq uint64) *Image {
	t.Helper()
	return Capture(warmEngine(t, testCommunity(t, 12)).Snapshot(), seq)
}

// recsDigest fingerprints the full serving surface: every agent's
// recommendations with exact scores. Two engines with equal digests are
// behaviorally indistinguishable to the read API.
func recsDigest(t testing.TB, snap *engine.Snapshot) string {
	t.Helper()
	var b strings.Builder
	for _, id := range snap.Community().Agents() {
		recs, err := snap.Recommend(id, 5, engine.Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s:", id)
		for _, r := range recs {
			fmt.Fprintf(&b, " %s=%.17g/%d", r.Product, r.Score, r.Supporters)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEncodeDecodeRoundTrip pins the format's core property:
// Encode(Decode(Encode(img))) is byte-identical, and the decoded image
// restores an engine that serves exactly what the captured one did.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	img := testImage(t, 42)
	data := Encode(img)

	img2, err := Decode(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if img2.Epoch != img.Epoch || img2.Seq != img.Seq {
		t.Fatalf("epoch/seq drifted: got %d/%d, want %d/%d", img2.Epoch, img2.Seq, img.Epoch, img.Seq)
	}
	if len(img2.Rows) != len(img.Rows) {
		t.Fatalf("got %d rows, want %d", len(img2.Rows), len(img.Rows))
	}
	data2 := Encode(img2)
	if !bytes.Equal(data, data2) {
		t.Fatalf("re-encode is not byte-identical: %d vs %d bytes", len(data), len(data2))
	}

	// The restored engine must be fingerprint-equal to the source —
	// warm from the first request, no recompute drift.
	eng2, err := img2.Restore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := warmEngine(t, testCommunity(t, 12))
	if got, want := recsDigest(t, eng2.Snapshot()), recsDigest(t, src.Snapshot()); got != want {
		t.Fatalf("restored engine diverged from source:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// Restored compiled rows must be adopted, not rebuilt.
	mat := eng2.Snapshot().Recommender().Filter().Matrix()
	if mat == nil {
		t.Fatal("restored engine has no compiled matrix")
	}
	for i, id := range img2.Community.Agents() {
		r := mat.Row(img2.Community.Agent(id).Ord())
		if r == nil {
			t.Fatalf("restored matrix missing row for %s", id)
		}
		if r.Norm != img.Rows[i].Norm || r.Sum != img.Rows[i].Sum || r.NNZ() != img.Rows[i].NNZ() {
			t.Fatalf("row %d differs from captured row", i)
		}
	}
}

// TestDecodedTaxonomyQualifiedNames: a taxonomy decoded from a
// checkpoint — secondary parents included — names every topic by the
// "/"-join of its primary path, and resolves each name back to its topic.
func TestDecodedTaxonomyQualifiedNames(t *testing.T) {
	comm := testCommunity(t, 12)
	src := comm.Taxonomy()
	fic, _ := src.Lookup("Books/Fiction")
	alg, _ := src.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if err := src.AddEdge(fic, alg); err != nil {
		t.Fatal(err)
	}
	img, err := Decode(Encode(Capture(warmEngine(t, comm).Snapshot(), 3)), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	tax := img.Community.Taxonomy()
	if tax.Len() != src.Len() || len(tax.Parents(alg)) != 2 {
		t.Fatalf("decoded %d topics, Algebra's parents %v; want %d and two", tax.Len(), tax.Parents(alg), src.Len())
	}
	for _, d := range tax.Topics() {
		var parts []string
		for _, p := range tax.PrimaryPath(d) {
			parts = append(parts, tax.Name(p))
		}
		want := strings.Join(parts, "/")
		if got := tax.QualifiedName(d); got != want || got != src.QualifiedName(d) {
			t.Fatalf("QualifiedName(%d) = %q, primary path spells %q, source %q", d, got, want, src.QualifiedName(d))
		}
		if at, ok := tax.Lookup(want); !ok || at != d {
			t.Fatalf("Lookup(%q) = %d,%v, want %d", want, at, ok, d)
		}
	}
}

// TestRestoredRanksCarryOrdinals: every rank of a restored neighborhood
// carries its peer's ordinal — the one the file stores — so nothing
// downstream resolves a restored peer by its URI.
func TestRestoredRanksCarryOrdinals(t *testing.T) {
	img, err := Decode(Encode(testImage(t, 8)), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := img.Restore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	comm := snap.Community()
	checked := 0
	for _, id := range comm.Agents() {
		peers, ok := snap.CachedPeers(id, engine.Overrides{})
		if !ok {
			t.Fatalf("%s: neighborhood not restored", id)
		}
		for _, pr := range peers {
			if pr.Ord() != comm.Agent(pr.Agent).Ord() {
				t.Fatalf("%s: restored peer %s carries ordinal %d, want %d", id, pr.Agent, pr.Ord(), comm.Agent(pr.Agent).Ord())
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("fixture: no restored ranks")
	}
}

// TestRoundTripAfterChurn re-checks the round trip on a mutated, multi-
// epoch community: retracted statements, new agents, re-rated products.
func TestRoundTripAfterChurn(t *testing.T) {
	comm := testCommunity(t, 12)
	eng := warmEngine(t, comm)
	ids := comm.Agents()
	next := comm.Clone()
	if err := next.SetTrust(ids[0], ids[5], 0.9); err != nil {
		t.Fatal(err)
	}
	next.DeleteTrust(ids[0], ids[1])
	next.AddAgent("http://ckpt.example/people/late").Name = "Latecomer"
	if err := next.SetRating(ids[3], "urn:isbn:9780553380958", -0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Swap(next); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	for _, id := range next.Agents() {
		if _, err := snap.Recommend(id, 5, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	img := Capture(snap, 7)
	data := Encode(img)
	img2, err := Decode(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, Encode(img2)) {
		t.Fatal("re-encode after churn is not byte-identical")
	}
}

// TestDecodeOptionsMismatch: a checkpoint compiled under different
// pipeline options is unusable and must be refused, not served.
func TestDecodeOptionsMismatch(t *testing.T) {
	data := Encode(testImage(t, 1))
	opt := testOptions()
	opt.TrustThreshold = 0.25
	if _, err := Decode(data, opt); !errors.Is(err, ErrOptions) {
		t.Fatalf("got %v, want ErrOptions", err)
	}
	opt = testOptions()
	opt.MaxNeighbors = 8
	if _, err := Decode(data, opt); !errors.Is(err, ErrOptions) {
		t.Fatalf("got %v, want ErrOptions", err)
	}
}

// TestWholeRangeImageIsStaleUnderDefaults is the regression test for the
// checkpoint a build older than the bounded defaults left behind: its
// options were all zeros, which then meant "everyone in range" — the
// pipeline spelled here with explicit whole-range bounds — and its warm
// peers hold those unbounded rankings. Under today's zero options the
// signature must differ, so the file takes the ErrOptions path: the
// statements are kept, the peers section is dropped, and the recompiled
// engine serves what a clean engine under the defaults serves.
func TestWholeRangeImageIsStaleUnderDefaults(t *testing.T) {
	comm := testCommunity(t, 40)
	whole := testOptions()
	whole.Appleseed.MaxNodes, whole.MaxNeighbors, whole.TrustThreshold = comm.NumAgents(), comm.NumAgents(), 1e-300
	old, err := engine.New(comm, whole, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	old.Warmup(1)
	img := Capture(old.Snapshot(), 9)
	if len(img.Peers) == 0 {
		t.Fatal("fixture: no warm peers captured")
	}
	data := Encode(img)

	if _, err := Decode(data, testOptions()); !errors.Is(err, ErrOptions) {
		t.Fatalf("whole-range image decoded under the defaults: %v, want ErrOptions", err)
	}
	kept, err := decode(data, testOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Peers) != 0 {
		t.Fatalf("statements-only decode kept %d warm peers entries", len(kept.Peers))
	}
	if kept.Seq != img.Seq || kept.Community.NumAgents() != comm.NumAgents() {
		t.Fatalf("statements lost: seq %d agents %d, want %d/%d", kept.Seq, kept.Community.NumAgents(), img.Seq, comm.NumAgents())
	}
	restored, err := kept.Restore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := engine.New(comm, testOptions(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recsDigest(t, restored.Snapshot()), recsDigest(t, clean.Snapshot()); got != want {
		t.Fatal("recompiled engine does not serve what a clean engine under the defaults serves")
	}
	// The fixture must tell the two pipelines apart, or serving the stale
	// peers would have gone unnoticed.
	bounded, unbounded := 0, 0
	for _, id := range comm.Agents() {
		a, _ := clean.Snapshot().RankedPeers(id, engine.Overrides{})
		b, _ := old.Snapshot().RankedPeers(id, engine.Overrides{})
		bounded, unbounded = bounded+len(a), unbounded+len(b)
	}
	if bounded >= unbounded {
		t.Fatalf("fixture: defaults rank %d peers, whole range %d — the bounds never bind", bounded, unbounded)
	}
}

// TestDecodeCorruptionSweep flips every byte of a file and cuts it at
// every length; every variant must fail cleanly — corruption is always an
// error, never a silently wrong snapshot. Every byte is checksummed once,
// so a flip is caught by the record that holds it (or, in a record's
// header, by the walk), in both decode modes, with the same error however
// the tasks interleave; a flip in the version, its header record resealed
// over it, is ErrVersion. A cut anywhere — in the header, at each record
// boundary, mid-record, before the trailer — is ErrCorrupt.
func TestDecodeCorruptionSweep(t *testing.T) {
	data := Encode(testImage(t, 3))
	step := len(data)/211 + 1
	for off := range data {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		if off%step != 0 {
			if _, err := Decode(mut, testOptions()); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at offset %d/%d: got %v, want ErrCorrupt", off, len(data), err)
			}
			continue
		}
		for _, statementsOnly := range []bool{false, true} {
			requireOneError(t, mut, testOptions(), statementsOnly, ErrCorrupt)
		}
	}
	version := frame.HeaderSize + len(fileMagic)
	for off := version; off < version+4; off++ {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		for _, statementsOnly := range []bool{false, true} {
			requireOneError(t, reseal(mut), testOptions(), statementsOnly, ErrVersion)
		}
	}
	boundaries := map[int]bool{}
	frame.Walk(data, func(off int, r frame.Record) error {
		boundaries[off] = true
		return nil
	})
	if len(boundaries) != 10 {
		t.Fatalf("fixture: %d records, want a header, 8 sections and a trailer", len(boundaries))
	}
	for cut := range data {
		_, err := Decode(data[:cut], testOptions())
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d/%d: got %v, want ErrCorrupt", cut, len(data), err)
		}
		if want := "no trailer"; boundaries[cut] && cut > 0 && !strings.Contains(err.Error(), want) {
			t.Fatalf("truncation at the record boundary %d: got %v, want %q", cut, err, want)
		}
	}
}

// requireOneError decodes data 20 times and requires every attempt to
// fail with want, and all with the same message.
func requireOneError(t *testing.T, data []byte, opt core.Options, statementsOnly bool, want error) error {
	t.Helper()
	_, first := decode(data, opt, statementsOnly)
	if !errors.Is(first, want) {
		t.Fatalf("statements only: %v: got %v, want %v", statementsOnly, first, want)
	}
	for i := 1; i < 20; i++ {
		if _, err := decode(data, opt, statementsOnly); err == nil || err.Error() != first.Error() {
			t.Fatalf("statements only: %v: attempt %d failed with %v, the first with %v", statementsOnly, i, err, first)
		}
	}
	return first
}

// spoil flips the middle byte of section id's payload in place.
func spoil(t *testing.T, data []byte, id uint32) {
	t.Helper()
	secs, err := split(data)
	if err != nil || len(secs[id].b) == 0 {
		t.Fatalf("fixture: no section %d (%v)", id, err)
	}
	secs[id].b[len(secs[id].b)/2] ^= 0x01 // the payloads alias data
}

// TestDecodeReportsTheLowestFault: several faults, found by different
// tasks, yield one error by a fixed rank — checksums before decoders, and
// within each the lowest section id — whichever task finishes first.
func TestDecodeReportsTheLowestFault(t *testing.T) {
	img := testImage(t, 3)
	data := Encode(img)

	// Checksums: TAXONOMY's task and PEERS's task each find one.
	mut := bytes.Clone(data)
	spoil(t, mut, secPeers)
	spoil(t, mut, secTaxonomy)
	if err := requireOneError(t, mut, testOptions(), false, ErrCorrupt); !strings.Contains(err.Error(), fmt.Sprintf("section %d checksum", secTaxonomy)) {
		t.Fatalf("got %v, want the taxonomy's checksum", err)
	}
	// A fault of the container outranks them: here, a trailer that
	// counts one section too many.
	mut[len(mut)-4] ^= 0x01 // 8 sections become 9
	if err := requireOneError(t, reseal(mut), testOptions(), false, ErrCorrupt); !strings.Contains(err.Error(), "bad trailer") {
		t.Fatalf("got %v, want the trailer's count", err)
	}

	// Decoders: a PEERS rank naming no agent (checked by PEERS's task)
	// beside two products under one ID (caught at registration, after the
	// join): PRODUCTS has the lower id.
	mut = bytes.Clone(data)
	secs, _ := split(mut)
	d := &dec{b: secs[secPeers].b}
	d.uv()                           // entry count
	d.uv()                           // the first entry's agent ordinal
	d.bytes(engine.PipeSize, "pipe") // its pipe key
	if d.uv() == 0 || d.err != nil {
		t.Fatal("fixture: the first peers entry has no ranks")
	}
	binary.LittleEndian.PutUint32(secs[secPeers].b[d.off:], uint32(img.Community.NumAgents()))
	at := bytes.Index(mut, []byte("urn:isbn:9780521386326"))
	copy(mut[at:], "urn:isbn:9780553380958")
	mut = reseal(mut)
	if err := requireOneError(t, mut, testOptions(), false, ErrCorrupt); !strings.Contains(err.Error(), "distinct products") {
		t.Fatalf("got %v, want the duplicate product", err)
	}
	// Statements only, PEERS goes unread: the duplicate still fails it.
	requireOneError(t, mut, testOptions(), true, ErrCorrupt)
}

// TestOptionsMismatchWithCorruptSectionIsCorrupt: a file written under
// other options whose PEERS (or PROFMAT) checksum fails is ErrCorrupt,
// not ErrOptions — on ErrOptions, Recover would keep the file's
// statements.
func TestOptionsMismatchWithCorruptSectionIsCorrupt(t *testing.T) {
	data := Encode(testImage(t, 1))
	opt := testOptions()
	opt.TrustThreshold = 0.25
	if _, err := Decode(data, opt); !errors.Is(err, ErrOptions) {
		t.Fatalf("fixture: got %v, want ErrOptions", err)
	}
	for _, id := range []uint32{secPeers, secProfmat} {
		mut := bytes.Clone(data)
		spoil(t, mut, id)
		for _, statementsOnly := range []bool{false, true} {
			requireOneError(t, mut, opt, statementsOnly, ErrCorrupt)
		}
	}
}

// TestDecodeConcurrently: decode only reads its buffer, so goroutines may
// decode one at once — run under -race — and each gets the file's image.
func TestDecodeConcurrently(t *testing.T) {
	data := Encode(Capture(warmEngine(t, testCommunity(t, 200)).Snapshot(), 5))
	errs := make(chan error, 8)
	for i := 0; i < cap(errs); i++ {
		go func() {
			img, err := Decode(data, testOptions())
			if err == nil && !bytes.Equal(Encode(img), data) {
				err = errors.New("the image re-encodes to other bytes")
			}
			errs <- err
		}()
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeRejectsStatementsTheSettersReject: the checksums vouch for the
// bytes, not for the writer. A file whose statements no setter would have
// taken — a NaN or out-of-range value, trust in oneself — is corrupt, for
// the full decode and the statements-only one alike.
func TestDecodeRejectsStatementsTheSettersReject(t *testing.T) {
	// a2 (ordinal 2) states values no other statement in the file has,
	// trust in a5 (ordinal 5) and a rating, so each is found by its bytes.
	const trustMark, ratingMark = 0.123456789, 0.987654321
	comm := testCommunity(t, 12)
	if err := comm.SetTrust("http://ckpt.example/people/a2", "http://ckpt.example/people/a5", trustMark); err != nil {
		t.Fatal(err)
	}
	if err := comm.SetRating("http://ckpt.example/people/a2", "urn:isbn:9780553380958", ratingMark); err != nil {
		t.Fatal(err)
	}
	data := Encode(&Image{Epoch: 1, Seq: 3, Options: testOptions(), Community: comm})
	f64 := func(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
	for what, spoil := range map[string][2][]byte{
		"NaN trust":           {f64(trustMark), f64(math.NaN())},
		"trust out of range":  {f64(trustMark), f64(1.5)},
		"self trust":          {append([]byte{5}, f64(trustMark)...), append([]byte{2}, f64(trustMark)...)},
		"NaN rating":          {f64(ratingMark), f64(math.NaN())},
		"rating out of range": {f64(ratingMark), f64(-7)},
	} {
		// Behind the setters' backs, as a faulty writer would.
		if n := bytes.Count(data, spoil[0]); n != 1 {
			t.Fatalf("%s: fixture bytes found %d times", what, n)
		}
		mut := reseal(bytes.Replace(data, spoil[0], spoil[1], 1))
		for _, statementsOnly := range []bool{false, true} {
			if _, err := decode(mut, testOptions(), statementsOnly); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s (statements only: %v): got %v, want ErrCorrupt", what, statementsOnly, err)
			}
		}
	}
}

// TestDecodeRejectsDuplicateIDs: two agents, or two products, under one
// ID would share a record and shift every later ordinal; such a file is
// corrupt, not merged.
func TestDecodeRejectsDuplicateIDs(t *testing.T) {
	data := Encode(&Image{Epoch: 1, Seq: 3, Options: testOptions(), Community: testCommunity(t, 12)})
	for _, swap := range [][2]string{
		{"http://ckpt.example/people/a7", "http://ckpt.example/people/a6"},
		{"urn:isbn:9780521386326", "urn:isbn:9780553380958"},
	} {
		mut := bytes.Clone(data)
		at := bytes.Index(mut, []byte(swap[0]))
		if at < 0 || len(swap[0]) != len(swap[1]) {
			t.Fatalf("fixture: %q not in the file", swap[0])
		}
		copy(mut[at:], swap[1])
		if _, err := Decode(reseal(mut), testOptions()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "distinct") {
			t.Fatalf("%s twice: got %v, want ErrCorrupt naming the distinct count", swap[1], err)
		}
	}
}

// TestDecodeRejectsDescriptorOutsideTaxonomy: the checksums vouch for the
// bytes, not for the writer. A product naming a topic its file's
// taxonomy does not hold is corrupt at Load: accepted, it would reach
// every consumer that indexes by topic — the profile build of the next
// full compile, in a worker goroutine, and ?theta= diversification.
func TestDecodeRejectsDescriptorOutsideTaxonomy(t *testing.T) {
	comm := testCommunity(t, 12)
	first := comm.Product(comm.Products()[0])
	stray := *first
	stray.Topics = []taxonomy.Topic{taxonomy.Topic(comm.Taxonomy().Len() + 5)}
	comm.AddProduct(stray) // same ID: the first product, re-described
	data := Encode(&Image{Epoch: 1, Seq: 3, Options: testOptions(), Community: comm})
	for _, statementsOnly := range []bool{false, true} {
		if _, err := decode(data, testOptions(), statementsOnly); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "descriptor") {
			t.Fatalf("statements only: %v: got %v, want ErrCorrupt naming the descriptor", statementsOnly, err)
		}
	}
}

// TestSectionChecksum corrupts a section payload: its record's checksum,
// the only one over those bytes, must reject the file, naming the section.
func TestSectionChecksum(t *testing.T) {
	data := Encode(testImage(t, 3))
	mut := bytes.Clone(data)
	mut[2*frame.HeaderSize+headerSize+4+1] ^= 0x01 // second byte of the meta section
	if _, err := Decode(mut, testOptions()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("section %d checksum", secMeta)) {
		t.Fatalf("got %v, want ErrCorrupt from the meta section's record", err)
	}
}

// TestVersionMismatch: an unknown format version is ErrVersion, so a
// downgrade never misparses a newer file as garbage-but-valid — in v2's
// header record and in v1's header alike; a v1 file is ErrVersion to
// Decode too, which reads no v1 compiled state.
func TestVersionMismatch(t *testing.T) {
	data := Encode(testImage(t, 3))
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint32(mut[frame.HeaderSize+len(fileMagic):], fileVersion+1)
	if _, err := Decode(reseal(mut), testOptions()); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	v1 := readFixture(t, "v1.swc")
	if _, err := Decode(v1, testOptions()); !errors.Is(err, errV1) {
		t.Fatalf("a v1 file: got %v, want errV1", err)
	}
	binary.LittleEndian.PutUint32(v1[len(fileMagic):], fileVersion+1)
	refoot(v1)
	for _, statementsOnly := range []bool{false, true} {
		if _, err := decode(v1, testOptions(), statementsOnly); !errors.Is(err, ErrVersion) || errors.Is(err, errV1) {
			t.Fatalf("a v1 header naming v%d: got %v, want ErrVersion", fileVersion+1, err)
		}
	}
}

// TestWriteListPrune covers the on-disk lifecycle: atomic writes land
// under sequence-derived names, List orders newest-first, Prune enforces
// retention and sweeps stale temporaries.
func TestWriteListPrune(t *testing.T) {
	dir := t.TempDir()
	img := testImage(t, 0)
	for _, seq := range []uint64{5, 9, 13} {
		img.Seq = seq
		if _, err := WriteImage(dir, img, nil); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Seq != 13 || infos[1].Seq != 9 || infos[2].Seq != 5 {
		t.Fatalf("List = %+v, want seqs 13,9,5", infos)
	}
	stale := filepath.Join(dir, fileName(21)+".tmp-roll")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	infos, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Seq != 13 || infos[1].Seq != 9 {
		t.Fatalf("after prune List = %+v, want seqs 13,9", infos)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temporary survived prune: %v", err)
	}
	if _, err := Load(infos[0].Path, testOptions()); err != nil {
		t.Fatal(err)
	}
}

// TestWriteImageFaults drives every injected failure class through the
// write path: the write must fail loudly, leave no temporary behind, and
// leave the previously retained checkpoint untouched and loadable.
func TestWriteImageFaults(t *testing.T) {
	img := testImage(t, 5)
	for _, tc := range []struct {
		name string
		cfg  faultinject.Config
	}{
		{"torn write", faultinject.Config{Seed: 7, TornWriteRate: 1}},
		{"write error", faultinject.Config{Seed: 7, WriteErrorRate: 1}},
		{"failed fsync", faultinject.Config{Seed: 7, SyncErrorRate: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			img.Seq = 5
			good, err := WriteImage(dir, img, nil)
			if err != nil {
				t.Fatal(err)
			}
			inj := faultinject.New(tc.cfg)
			img.Seq = 9
			_, err = WriteImage(dir, img, func(f *os.File) frame.File { return inj.File(f) })
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("got %v, want the injected fault", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Fatalf("failed write left temporary %s", e.Name())
				}
			}
			infos, err := List(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 1 || infos[0].Path != good {
				t.Fatalf("retained set disturbed: %+v", infos)
			}
			if _, err := Load(good, testOptions()); err != nil {
				t.Fatalf("prior checkpoint unloadable after failed write: %v", err)
			}
		})
	}
}

// TestPeersOrdinalOutOfRangeIsCorruptAtLoad: the ranks of a PEERS entry
// decode on first touch, but their agent ordinals are checked at Load —
// a file naming an agent it does not hold fails there, not mid-request.
func TestPeersOrdinalOutOfRangeIsCorruptAtLoad(t *testing.T) {
	img := testImage(t, 4)
	data := Encode(img)
	secs, err := split(data)
	if err != nil {
		t.Fatal(err)
	}
	// The payload aliases data: writing through it spoils the file.
	payload := secs[secPeers].b
	d := &dec{b: payload}
	spoiled := false
	for n := d.uv(); n > 0 && !spoiled && d.err == nil; n-- {
		d.uv()                           // agent ordinal
		d.bytes(engine.PipeSize, "pipe") // pipe key
		np := int(d.uv())
		if np > 1 {
			// The last rank, so a decoder that stopped early would miss it.
			binary.LittleEndian.PutUint32(payload[d.off+(np-1)*peerRankSize:], uint32(img.Community.NumAgents()))
			spoiled = true
		}
		d.bytes(np*peerRankSize, "ranks")
	}
	if !spoiled || d.err != nil {
		t.Fatalf("fixture: no peers entry with two ranks (%v)", d.err)
	}
	if _, err := Decode(reseal(data), testOptions()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "agent ordinal") {
		t.Fatalf("out-of-range rank ordinal: got %v, want ErrCorrupt at Load", err)
	}
}

// TestRestoreDecodesPeersOnFirstTouch: a restored engine holds its warm
// neighborhoods undecoded — restoring decodes none, and a checkpoint of
// the untouched engine is the file it came from, byte for byte — and a
// read decodes the entry it reads, once.
func TestRestoreDecodesPeersOnFirstTouch(t *testing.T) {
	data := Encode(testImage(t, 6))
	restore := func() (*engine.Engine, map[int32]int) {
		t.Helper()
		img, err := Decode(data, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		decodes := map[int32]int{}
		for i := range img.Peers {
			e := img.Peers[i]
			img.Peers[i].Ranks = func() []core.PeerRank { decodes[e.Agent]++; return e.Ranks() }
		}
		eng, err := img.Restore(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(decodes) != 0 {
			t.Fatalf("restore decoded %d entries, want none", len(decodes))
		}
		return eng, decodes
	}

	eng, _ := restore()
	if again := Encode(Capture(eng.Snapshot(), 6)); !bytes.Equal(again, data) {
		t.Fatalf("checkpoint of the untouched restored engine is %d bytes, differs from its %d-byte file", len(again), len(data))
	}

	eng, decodes := restore()
	snap := eng.Snapshot()
	id := snap.Community().Agents()[2]
	for i := 0; i < 3; i++ {
		if _, err := snap.Recommend(id, 5, engine.Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(decodes) != 1 || decodes[snap.Community().Agent(id).Ord()] != 1 {
		t.Fatalf("three reads of %s decoded %v, want its entry once", id, decodes)
	}
}

// recordsOf returns the payloads of data's records, in order.
func recordsOf(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	if _, torn, err := frame.Walk(data, func(_ int, r frame.Record) error {
		recs = append(recs, bytes.Clone(r.Payload))
		return nil
	}); torn || err != nil {
		t.Fatalf("fixture: torn %v, %v", torn, err)
	}
	return recs
}

// sealed seals each payload as a record, in order.
func sealed(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		start := len(out)
		out = append(frame.Start(out), p...)
		frame.Seal(out[start:])
	}
	return out
}

// TestRecordFaults: a file whose records are whole, each resealed, but
// do not make a v2 file — a section twice, one missing, an id v2 does not
// know (the retired ones included), a trailer that miscounts or is not
// last, no header — is ErrCorrupt, in both decode modes, with one error.
func TestRecordFaults(t *testing.T) {
	recs := recordsOf(t, Encode(testImage(t, 5)))
	hdr, trailer := recs[0], recs[len(recs)-1]
	secs := recs[1 : len(recs)-1]
	counted := func(n int) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, trailerID), uint32(n))
	}
	withID := func(p []byte, id uint32) []byte {
		p = bytes.Clone(p)
		binary.LittleEndian.PutUint32(p, id)
		return p
	}
	var trustless [][]byte
	for _, p := range secs {
		if binary.LittleEndian.Uint32(p) != secTrust {
			trustless = append(trustless, p)
		}
	}
	cases := []struct {
		name, want string
		recs       [][]byte
	}{
		{"duplicate section", "duplicate section 1", append([][]byte{hdr, secs[0]}, append(secs, counted(len(secs)+1))...)},
		{"missing section", "missing trust section", append(append([][]byte{hdr}, trustless...), counted(len(trustless)))},
		{"unknown section", "unknown section 11", append([][]byte{hdr, withID(secs[0], 11)}, append(secs[1:], trailer)...)},
		{"retired topic index", "unknown section 8", append(append([][]byte{hdr}, secs...), withID(secs[0], secTopicIndexRetired), counted(len(secs)+1))},
		{"retired profiles", "unknown section 10", append(append([][]byte{hdr}, secs...), withID(secs[0], secProfilesRetired), counted(len(secs)+1))},
		{"trailer miscounts", "bad trailer", append(append([][]byte{hdr}, secs...), counted(len(secs)-1))},
		{"trailer not last", "after the trailer", append(append([][]byte{hdr}, secs[:2]...), append([][]byte{counted(2)}, secs[2:]...)...)},
		{"no header", "bad header record", append(append([][]byte{}, secs...), trailer)},
		{"short record", "3-byte record", append(append([][]byte{hdr}, secs...), []byte{1, 0, 0}, trailer)},
	}
	for _, tc := range cases {
		for _, statementsOnly := range []bool{false, true} {
			if err := requireOneError(t, sealed(tc.recs...), testOptions(), statementsOnly, ErrCorrupt); !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: got %v, want %q", tc.name, err, tc.want)
			}
		}
	}
	if _, err := Decode(sealed(recs...), testOptions()); err != nil {
		t.Fatalf("fixture: the records resealed as they were: %v", err)
	}
}

func peersMisses() int64 {
	v, _ := expvar.Get("swrec_engine").(*expvar.Map).Get("peers_miss").(*expvar.Int)
	return v.Value()
}

// TestPipeKeysRoundTrip: every pipe-key variant a warm cache holds —
// metric, alpha and measure overrides, alone and together, under the
// full pipeline and pinned to the widening and ancestor rungs — restores
// under its own key: the restored engine answers each from its cache,
// recomputing no neighborhood, with the ranking captured; and the file
// re-encodes byte for byte.
func TestPipeKeysRoundTrip(t *testing.T) {
	eng := warmEngine(t, testCommunity(t, 12))
	alpha, metric, measure := 0.25, core.PathTrust, cf.Pearson
	type probe struct {
		id  model.AgentID
		ov  engine.Overrides
		pin string
	}
	var probes []probe
	for _, ov := range []engine.Overrides{{}, {Alpha: &alpha}, {Metric: &metric}, {Measure: &measure}, {Alpha: &alpha, Metric: &metric, Measure: &measure}} {
		for _, pin := range []string{"full-synthesis", "trust-hop-widening", "taxonomy-ancestor"} {
			for _, id := range eng.Snapshot().Community().Agents() {
				probes = append(probes, probe{id, ov, pin})
			}
		}
	}
	ask := func(e *engine.Engine, p probe) []core.PeerRank {
		t.Helper()
		sel, err := strategy.ParseSelector(p.pin, e.Ladder())
		if err != nil {
			t.Fatal(err)
		}
		peers, _, err := e.RankedPeersLadder(context.Background(), e.Snapshot(), p.id, p.ov, sel)
		if err != nil {
			t.Fatal(err)
		}
		return peers
	}
	want := make([][]core.PeerRank, len(probes))
	for i, p := range probes {
		want[i] = ask(eng, p)
	}
	img := Capture(eng.Snapshot(), 4)
	pipes := map[string]bool{}
	for _, e := range img.Peers {
		pipes[e.Pipe] = true
	}
	if len(pipes) != 15 {
		t.Fatalf("fixture: %d distinct pipe keys captured, want 5 override sets × 3 rungs", len(pipes))
	}
	data := Encode(img)
	got, err := Decode(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encode is not byte-identical")
	}
	restored, err := got.Restore(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	misses := peersMisses()
	for i, p := range probes {
		if peers := ask(restored, p); !slices.Equal(peers, want[i]) {
			t.Fatalf("%s %+v pinned to %s: restored %v, captured %v", p.id, p.ov, p.pin, peers, want[i])
		}
	}
	if n := peersMisses() - misses; n != 0 {
		t.Fatalf("the restored engine recomputed %d neighborhoods, want none", n)
	}
}
