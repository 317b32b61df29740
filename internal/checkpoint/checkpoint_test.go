package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/faultinject"
	"swrec/internal/frame"
	"swrec/internal/model"
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

// TestDecodeCorruptionSweep flips one byte at a spread of offsets and
// truncates at a spread of lengths; every variant must fail cleanly —
// corruption is always an error, never a silently wrong snapshot. With
// the footer resealed over the flip, only the structure, a section
// checksum or a section decoder can catch it, and one must, in both
// decode modes, with the same error however the tasks interleave.
func TestDecodeCorruptionSweep(t *testing.T) {
	data := Encode(testImage(t, 3))
	step := len(data)/211 + 1
	for off := 0; off < len(data); off += step {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		if _, err := Decode(mut, testOptions()); err == nil {
			t.Fatalf("flip at offset %d/%d decoded cleanly", off, len(data))
		}
		if off >= len(data)-4 {
			continue // the footer's checksum itself: resealing repairs the flip
		}
		refoot(mut)
		want := ErrCorrupt
		if off >= len(fileMagic) && off < len(fileMagic)+4 {
			want = ErrVersion
		}
		for _, statementsOnly := range []bool{false, true} {
			requireOneError(t, mut, testOptions(), statementsOnly, want)
		}
	}
	for _, cut := range []int{0, 1, headerLen - 1, headerLen, headerLen + sectionHdr, len(data) / 2, len(data) - footerLen, len(data) - 1} {
		if _, err := Decode(data[:cut], testOptions()); err == nil {
			t.Fatalf("truncation to %d/%d decoded cleanly", cut, len(data))
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
	secs, err := deframe(data)
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
	refoot(mut)
	if err := requireOneError(t, mut, testOptions(), false, ErrCorrupt); !strings.Contains(err.Error(), fmt.Sprintf("section %d checksum", secTaxonomy)) {
		t.Fatalf("got %v, want the taxonomy's checksum", err)
	}
	// The file checksum outranks them.
	mut[len(mut)-1] ^= 0x01
	if err := requireOneError(t, mut, testOptions(), false, ErrCorrupt); !strings.Contains(err.Error(), "file checksum") {
		t.Fatalf("got %v, want the file checksum", err)
	}

	// Decoders: a PEERS rank naming no agent (checked by PEERS's task)
	// beside two products under one ID (caught at registration, after the
	// join): PRODUCTS has the lower id.
	mut = bytes.Clone(data)
	secs, _ := deframe(mut)
	d := &dec{b: secs[secPeers].b}
	d.uv()            // entry count
	d.uv()            // the first entry's agent ordinal
	d.skipStr("pipe") // its pipe key
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
		refoot(mut)
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
	for what, spoil := range map[string]func(a *model.Agent){
		"NaN trust":           func(a *model.Agent) { a.Trust["http://ckpt.example/people/a5"] = math.NaN() },
		"trust out of range":  func(a *model.Agent) { a.Trust["http://ckpt.example/people/a5"] = 1.5 },
		"self trust":          func(a *model.Agent) { a.Trust[a.ID] = 0.5 },
		"NaN rating":          func(a *model.Agent) { a.Ratings["urn:isbn:9780553380958"] = math.NaN() },
		"rating out of range": func(a *model.Agent) { a.Ratings["urn:isbn:9780553380958"] = -7 },
	} {
		comm := testCommunity(t, 12)
		a := comm.AddAgent("http://ckpt.example/people/a2")
		spoil(a) // behind the setters' backs, as a faulty writer would
		a.MarkDirty()
		data := Encode(&Image{Epoch: 1, Seq: 3, Options: testOptions(), Community: comm})
		for _, statementsOnly := range []bool{false, true} {
			if _, err := decode(data, testOptions(), statementsOnly); !errors.Is(err, ErrCorrupt) {
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
		// Redo every section's CRC, then the footer's.
		for off := headerLen; off < len(mut)-footerLen; {
			plen := int(binary.LittleEndian.Uint64(mut[off+4:]))
			payload := mut[off+sectionHdr : off+sectionHdr+plen]
			binary.LittleEndian.PutUint32(mut[off+sectionHdr+plen:], crc32.ChecksumIEEE(payload))
			off += sectionHdr + plen + 4
		}
		refoot(mut)
		if _, err := Decode(mut, testOptions()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "distinct") {
			t.Fatalf("%s twice: got %v, want ErrCorrupt naming the distinct count", swap[1], err)
		}
	}
}

// refoot recomputes the whole-file footer checksum after a deliberate
// payload mutation, so the per-section CRC frame is what must catch it.
func refoot(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-footerLen]))
}

// withRetiredProfiles returns the v1 file an earlier build would have
// written for img: data plus the PROFILES section that build appended
// after PEERS (id 10: per agent its ordinal, entry count and key/value
// pairs — the same numbers as the profile-matrix rows), framed with the
// package's own frame and counted in the header.
func withRetiredProfiles(data []byte, img *Image) []byte {
	var ef enc
	ef.uv(uint64(len(img.Rows)))
	for ord, row := range img.Rows {
		ef.uv(uint64(ord))
		ef.uv(uint64(row.NNZ()))
		for i, k := range row.Keys {
			ef.uv(uint64(k))
			ef.f64(row.Vals[i])
		}
	}
	out := appendSection(bytes.Clone(data[:len(data)-footerLen]), secProfilesRetired, ef.b)
	nsec := binary.LittleEndian.Uint32(out[len(fileMagic)+4:])
	binary.LittleEndian.PutUint32(out[len(fileMagic)+4:], nsec+1)
	out = append(out, data[len(data)-footerLen:]...)
	refoot(out)
	return out
}

// WithRetiredTopicIndex returns the v1 file a build from before the
// topic index was retired wrote for the snapshot data holds: META's flag
// bit 4 set, and the TOPICINDEX section (id 8: the populated topics
// ascending, each with its products' ordinals in catalog order) framed
// between PROFMAT and PEERS and counted in the header. Exported for the
// package's external tests.
func WithRetiredTopicIndex(data []byte, comm *model.Community) []byte {
	postings := map[taxonomy.Topic][]int32{}
	for _, pid := range comm.Products() {
		p := comm.Product(pid)
		for _, d := range p.Topics {
			postings[d] = append(postings[d], p.Ord())
		}
	}
	topics := make([]taxonomy.Topic, 0, len(postings))
	for d := range postings {
		topics = append(topics, d)
	}
	sort.Slice(topics, func(i, j int) bool { return topics[i] < topics[j] })
	var ei enc
	ei.uv(uint64(len(topics)))
	for _, d := range topics {
		ei.uv(uint64(d))
		ei.uv(uint64(len(postings[d])))
		for _, ord := range postings[d] {
			ei.uv(uint64(ord))
		}
	}

	out := bytes.Clone(data[:headerLen])
	nsec := binary.LittleEndian.Uint32(out[len(fileMagic)+4:])
	binary.LittleEndian.PutUint32(out[len(fileMagic)+4:], nsec+1)
	for body := data[headerLen : len(data)-footerLen]; len(body) > 0; {
		id := binary.LittleEndian.Uint32(body)
		plen := int(binary.LittleEndian.Uint64(body[4:]))
		payload := body[sectionHdr : sectionHdr+plen]
		body = body[sectionHdr+plen+4:]
		switch id {
		case secMeta:
			payload = bytes.Clone(payload)
			m := &dec{b: payload}
			m.uv()              // epoch
			m.uv()              // seq
			m.skipStr("sig")    // option signature
			payload[m.off] |= 4 // flags
		case secPeers:
			out = appendSection(out, secTopicIndexRetired, ei.b)
		}
		out = appendSection(out, id, payload)
	}
	out = append(out, data[len(data)-footerLen:]...)
	refoot(out)
	return out
}

// requireRetiredSectionLoads: old, data plus retired section id as an
// earlier v1 build wrote it, decodes and restores, serves exactly what
// data serves, and re-encodes to data; and retired does not mean
// unchecked — a bad byte in the section's payload still fails its frame.
func requireRetiredSectionLoads(t *testing.T, data, old []byte, id uint32) {
	t.Helper()
	secs, err := deframe(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) <= len(data) || len(secs[id].b) == 0 {
		t.Fatalf("the fixture carries no section %d", id)
	}

	restore := func(file []byte) *engine.Engine {
		t.Helper()
		got, err := Decode(file, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if again := Encode(got); !bytes.Equal(again, data) {
			t.Fatalf("re-encode is %d bytes, this build's file is %d", len(again), len(data))
		}
		eng, err := got.Restore(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	with, without := restore(old), restore(data)
	if got, want := recsDigest(t, with.Snapshot()), recsDigest(t, without.Snapshot()); got != want {
		t.Fatalf("the retired section changed what is served:\n--- without ---\n%s\n--- with ---\n%s", want, got)
	}
	if with.Epoch() != without.Epoch() {
		t.Fatalf("epoch %d vs %d", with.Epoch(), without.Epoch())
	}

	torn := bytes.Clone(old)
	secs, _ = deframe(torn) // the payloads alias torn
	secs[id].b[len(secs[id].b)-1] ^= 0x01
	refoot(torn)
	if _, err := Decode(torn, testOptions()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt retired section %d: got %v, want ErrCorrupt", id, err)
	}
}

// TestRetiredTopicIndexSectionStillLoads: a v1 file written while the
// topic index was still checkpointed loads, and its index goes unread.
func TestRetiredTopicIndexSectionStillLoads(t *testing.T) {
	img := testImage(t, 9)
	data := Encode(img)
	requireRetiredSectionLoads(t, data, WithRetiredTopicIndex(data, img.Community), secTopicIndexRetired)
}

// TestRetiredProfilesSectionStillLoads: likewise for a v1 file written
// before the PROFILES section was retired.
func TestRetiredProfilesSectionStillLoads(t *testing.T) {
	img := testImage(t, 9)
	data := Encode(img)
	requireRetiredSectionLoads(t, data, withRetiredProfiles(data, img), secProfilesRetired)
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

// TestSectionChecksum corrupts a section payload but repairs the footer:
// the per-section CRC32 frame alone must reject the file.
func TestSectionChecksum(t *testing.T) {
	data := Encode(testImage(t, 3))
	mut := bytes.Clone(data)
	mut[headerLen+sectionHdr+1] ^= 0x01 // second byte of the meta payload
	refoot(mut)
	if _, err := Decode(mut, testOptions()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt from the section frame", err)
	}
}

// TestVersionMismatch: an unknown format version is ErrVersion, so a
// downgrade never misparses a newer file as garbage-but-valid.
func TestVersionMismatch(t *testing.T) {
	data := Encode(testImage(t, 3))
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint32(mut[len(fileMagic):], fileVersion+1)
	refoot(mut)
	if _, err := Decode(mut, testOptions()); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
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
	secs, err := deframe(data)
	if err != nil {
		t.Fatal(err)
	}
	// The payload aliases data: writing through it spoils the file.
	payload := secs[secPeers].b
	d := &dec{b: payload}
	spoiled := false
	for n := d.uv(); n > 0 && !spoiled && d.err == nil; n-- {
		d.uv()            // agent ordinal
		d.skipStr("pipe") // pipe key
		np := int(d.uv())
		if np > 1 {
			// The last rank, so a decoder that stopped early would miss it.
			binary.LittleEndian.PutUint32(payload[d.off+(np-1)*peerRankSize:], uint32(img.Community.NumAgents()))
			spoiled = true
		}
		d.skip(np*peerRankSize, "ranks")
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
