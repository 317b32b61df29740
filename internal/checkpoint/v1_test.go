package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/taxonomy"
)

// The v1 fixtures in testdata/ were written by the last build whose
// checkpoint format was v1, with its own WriteImage:
//
//   - v1.swc is Capture(snap, 11) of warmEngine(testCommunity(t, 12)),
//     after that snapshot also served Recommend(n=5) to the first four
//     agents under each of the overrides {alpha 0.25}, {metric PathTrust},
//     {measure Pearson} and {alpha 0.25, metric PathTrust}, and
//     RankedPeersLadder to every agent pinned to trust-hop-widening and to
//     taxonomy-ancestor, with no override and with alpha 0.25 — so its
//     PEERS section holds every pipe-key variant, spelled as v1's text.
//   - v1-retired.swc is the same file after that build's test helpers
//     appended the retired PROFILES section (id 10) and then inserted the
//     retired TOPICINDEX section (id 8) with META's flag bit 4, as
//     withRetiredProfiles and WithRetiredTopicIndex below still do.
//
// Both hold the statements of testCommunity(t, 12), epoch 1, seq 11.

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refoot recomputes a v1 file's whole-file footer checksum after a
// deliberate mutation, so the section checksums are what must catch it.
func refoot(data []byte) {
	end := len(data) - v1FooterLen
	binary.LittleEndian.PutUint32(data[end+4:], crc32.ChecksumIEEE(data[:end]))
}

// asV1 returns the v1 file an earlier build would have written with the
// sections of data, a v3 file: v1's container around the same section
// bytes — the statement sections rewritten as v1's varint rows (v1's
// other sections are v3's, but for PEERS's pipe keys and PROFMAT's
// pads, which a v1 read never decodes) — with extra sections added in id
// order and META's flags or'ed with flags.
func asV1(t testing.TB, data []byte, flags uint8, extra map[uint32][]byte) []byte {
	t.Helper()
	secs, _, err := split(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decode(data, nil, testOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[uint32][]byte{
		secTrust:   varintRows(img.Community, (*model.Agent).TrustedPeers),
		secRatings: varintRows(img.Community, (*model.Agent).RatedProducts),
	}
	for id, s := range secs {
		if payloads[id] == nil {
			payloads[id] = s.b
		}
	}
	for id, b := range extra {
		payloads[id] = b
	}
	ids := make([]uint32, 0, len(payloads))
	for id := range payloads {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := []byte(fileMagic)
	out = binary.LittleEndian.AppendUint32(out, v1Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		payload := payloads[id]
		if id == secMeta {
			payload = bytes.Clone(payload)
			m := &dec{b: payload}
			m.uv()  // epoch
			m.uv()  // seq
			m.str() // option signature
			payload[m.off] |= flags
		}
		out = binary.LittleEndian.AppendUint32(out, id)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	out = binary.LittleEndian.AppendUint32(out, v1FooterMagic)
	out = binary.LittleEndian.AppendUint32(out, 0)
	refoot(out)
	return out
}

// varintRows is a statement section as v1 and v2 wrote it: per agent its
// row's length, then per entry the target's ordinal and the value.
func varintRows(comm *model.Community, row func(*model.Agent) model.Row) []byte {
	var e enc
	for _, id := range comm.Agents() {
		r := row(comm.Agent(id))
		e.uv(uint64(len(r)))
		for _, s := range r {
			e.uv(uint64(s.Ord))
			e.f64(s.Val)
		}
	}
	return e.b
}

// withRetiredProfiles returns the v1 file an earlier build would have
// written for img, data being img's v3 file: its sections plus PROFILES
// (id 10: per agent its ordinal, entry count and key/value pairs — the
// same numbers as the profile-matrix rows).
func withRetiredProfiles(t testing.TB, data []byte, img *Image) []byte {
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
	return asV1(t, data, 0, map[uint32][]byte{secProfilesRetired: ef.b})
}

// WithRetiredTopicIndex returns the v1 file a build from before the
// topic index was retired wrote for the snapshot data, a v3 file, holds:
// META's flag bit 4 set, and the TOPICINDEX section (id 8: the populated
// topics ascending, each with its products' ordinals in catalog order)
// between PROFMAT and PEERS. Exported for the package's external tests.
func WithRetiredTopicIndex(t testing.TB, data []byte, comm *model.Community) []byte {
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
	return asV1(t, data, 4, map[uint32][]byte{secTopicIndexRetired: ei.b})
}

// requireRetiredSectionLoads: old, the statements of data (a v3 file) in
// a v1 file that carries retired section id as an earlier build wrote it,
// gives back exactly data's statements, and the engine recompiled from
// them serves what data's restored engine serves; and retired does not
// mean unchecked — a bad byte in the section's payload still fails its
// checksum.
func requireRetiredSectionLoads(t *testing.T, data, old []byte, id uint32) {
	t.Helper()
	secs, err := deframe(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs[id].b) == 0 {
		t.Fatalf("the fixture carries no section %d", id)
	}
	got, err := decode(old, nil, testOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decode(data, nil, testOptions(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(got), Encode(want)) {
		t.Fatal("the v1 file's statements differ from the v3 file's")
	}
	img, err := Decode(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	restore := func(img *Image) *engine.Engine {
		t.Helper()
		eng, err := img.Restore(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	with, warm := restore(got), restore(img)
	if a, b := recsDigest(t, with.Snapshot()), recsDigest(t, warm.Snapshot()); a != b {
		t.Fatalf("the v1 file serves other answers:\n--- v3 ---\n%s\n--- v1 ---\n%s", b, a)
	}
	if with.Epoch() != warm.Epoch() {
		t.Fatalf("epoch %d vs %d", with.Epoch(), warm.Epoch())
	}

	torn := bytes.Clone(old)
	secs, _ = deframe(torn) // the payloads alias torn
	secs[id].b[len(secs[id].b)-1] ^= 0x01
	refoot(torn)
	if _, err := decode(torn, nil, testOptions(), true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt retired section %d: got %v, want ErrCorrupt", id, err)
	}
}

// TestRetiredTopicIndexSectionStillLoads: a v1 file written while the
// topic index was still checkpointed gives back its statements, and its
// index goes unread.
func TestRetiredTopicIndexSectionStillLoads(t *testing.T) {
	img := testImage(t, 9)
	data := Encode(img)
	requireRetiredSectionLoads(t, data, WithRetiredTopicIndex(t, data, img.Community), secTopicIndexRetired)
}

// TestRetiredProfilesSectionStillLoads: likewise for a v1 file written
// before the PROFILES section was retired.
func TestRetiredProfilesSectionStillLoads(t *testing.T) {
	img := testImage(t, 9)
	data := Encode(img)
	requireRetiredSectionLoads(t, data, withRetiredProfiles(t, data, img), secProfilesRetired)
}

// TestV1FixturesGiveBackStatements: each v1 fixture recovers on rung 1 as
// checkpoint-recompiled, to an engine that serves what one compiled from
// scratch over the same community serves; a flip of any byte fails (the
// footer covers every one; the version is ErrVersion), a flip in a
// statement section fails with the footer resealed over it (its own
// checksum), and so does every cut the v1 sweep made.
func TestV1FixturesGiveBackStatements(t *testing.T) {
	scratch, err := engine.New(testCommunity(t, 12), testOptions(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := recsDigest(t, scratch.Snapshot())
	for _, name := range []string{"v1.swc", "v1-retired.swc"} {
		t.Run(name, func(t *testing.T) {
			data := readFixture(t, name)
			dir := t.TempDir()
			if err := os.MkdirAll(Dir(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(Dir(dir), fileName(11)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Recover(RecoverConfig{
				WALDir:  dir,
				Options: testOptions(),
				Engine:  testConfig(),
				Corpus:  func() (*model.Community, error) { return nil, errors.New("the corpus rung must not be reached") },
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Rung != 1 || res.Source != "checkpoint-recompiled" || res.Seq != 11 || res.Epoch != 1 {
				t.Fatalf("rung %d (%s) seq %d epoch %d, want rung 1 (checkpoint-recompiled) seq 11 epoch 1; fallbacks %v",
					res.Rung, res.Source, res.Seq, res.Epoch, res.Fallbacks)
			}
			if got := recsDigest(t, res.Engine.Snapshot()); got != want {
				t.Fatalf("recovered engine diverged from scratch:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}

			version := len(fileMagic)
			for off := range data {
				mut := bytes.Clone(data)
				mut[off] ^= 0x41
				want := ErrCorrupt
				if off >= version && off < version+4 {
					want = ErrVersion
				}
				if _, err := decode(mut, nil, testOptions(), true); !errors.Is(err, want) {
					t.Fatalf("flip at offset %d/%d: got %v, want %v", off, len(data), err, want)
				}
			}
			for off := v1HeaderLen; off < len(data)-v1FooterLen; {
				id := binary.LittleEndian.Uint32(data[off:])
				start := off + v1SectionHdr
				end := start + int(binary.LittleEndian.Uint64(data[off+4:]))
				for at := start; at < end && id <= secRatings; at++ {
					mut := bytes.Clone(data)
					mut[at] ^= 0x41
					refoot(mut)
					if _, err := decode(mut, nil, testOptions(), true); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("flip at offset %d in section %d, footer resealed: got %v, want ErrCorrupt", at, id, err)
					}
				}
				off = end + 4
			}
			for _, cut := range []int{0, 1, v1HeaderLen - 1, v1HeaderLen, v1HeaderLen + v1SectionHdr, len(data) / 2, len(data) - v1FooterLen, len(data) - 1} {
				if _, err := decode(data[:cut], nil, testOptions(), true); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("truncation to %d/%d: got %v, want ErrCorrupt", cut, len(data), err)
				}
			}
		})
	}
}
