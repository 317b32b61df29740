package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profmat"
)

// aligned returns a copy of data at an 8-aligned address, so every array
// in a v3 file is adopted where it lies (on a little-endian GOARCH).
func aligned(data []byte) []byte {
	buf := make([]byte, len(data)+8)
	off := int(-uintptr(unsafe.Pointer(&buf[0])) & 7)
	return append(buf[off:off], data...)
}

// misaligned returns a copy of data one byte off 8-byte alignment, so
// every array takes the copying path.
func misaligned(data []byte) []byte {
	buf := make([]byte, len(data)+9)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))&7) + 1
	return append(buf[off:off], data...)
}

// sameImage fails unless a and b hold the same bits: the file each
// encodes to, every matrix row's keys and value bits, every agent's rows.
func sameImage(a, b *Image) error {
	if !bytes.Equal(Encode(a), Encode(b)) {
		return errors.New("the two images encode to different files")
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if !slices.Equal(ra.Keys, rb.Keys) || math.Float64bits(ra.Norm) != math.Float64bits(rb.Norm) || math.Float64bits(ra.Sum) != math.Float64bits(rb.Sum) ||
			!slices.EqualFunc(ra.Vals, rb.Vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return fmt.Errorf("matrix row %d differs", i)
		}
	}
	ca, cb := a.Community, b.Community
	for i, id := range ca.Agents() {
		pa, pb := ca.Agent(id), cb.Agent(cb.Agents()[i])
		if !slices.Equal(pa.TrustedPeers(), pb.TrustedPeers()) || !slices.Equal(pa.RatedProducts(), pb.RatedProducts()) {
			return fmt.Errorf("agent %d's rows differ", i)
		}
	}
	return nil
}

// decodeBoth decodes data through the adopting path and the copying one,
// fails t unless the two give the same verdict and, on success, the same
// bits, and returns the adopting decode's result.
func decodeBoth(t testing.TB, data []byte, statementsOnly bool) (*Image, error) {
	t.Helper()
	img, err := decode(aligned(data), nil, testOptions(), statementsOnly)
	copied, cerr := decode(misaligned(data), nil, testOptions(), statementsOnly)
	if (err == nil) != (cerr == nil) || err != nil && err.Error() != cerr.Error() {
		t.Fatalf("statements only: %v: the adopting decode says %v, the copying one %v", statementsOnly, err, cerr)
	}
	if err == nil {
		if err := sameImage(img, copied); err != nil {
			t.Fatalf("statements only: %v: adopted and copied: %v", statementsOnly, err)
		}
	}
	return img, err
}

// within reports whether the first element of s lies inside buf.
func within[T any](s []T, buf []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(buf))
}

// TestDecodePathsAgree: every fixture — a v3 file of a warmed engine,
// and of a statements-only image; the committed v2 and v1 files —
// decodes to the same bits through both paths, in both modes; and on a
// little-endian GOARCH the aligned decode adopts its arrays in place,
// while the misaligned one copies them.
func TestDecodePathsAgree(t *testing.T) {
	v3 := Encode(testImage(t, 7))
	fixtures := map[string][]byte{
		"v3":            v3,
		"v3-statements": Encode(&Image{Epoch: 2, Seq: 9, Options: testOptions(), Community: testCommunity(t, 30)}),
		"v2.swc":        readFixture(t, "v2.swc"),
		"v1.swc":        readFixture(t, "v1.swc"),
		"v1-retired":    readFixture(t, "v1-retired.swc"),
	}
	for name, data := range fixtures {
		for _, statementsOnly := range []bool{false, true} {
			_, err := decodeBoth(t, data, statementsOnly)
			if err != nil && (statementsOnly || !errors.Is(err, errOlder)) {
				t.Fatalf("%s (statements only: %v): %v", name, statementsOnly, err)
			}
		}
	}

	buf := aligned(v3)
	img, err := decode(buf, nil, testOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	mbuf := misaligned(v3)
	copied, err := decode(mbuf, nil, testOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	row := slices.IndexFunc(img.Rows, func(r profmat.Row) bool { return r.NNZ() > 0 })
	if row < 0 {
		t.Fatal("fixture: every profile row is empty")
	}
	agent := img.Community.Agent(img.Community.Agents()[0])
	adopted := within(img.Rows[row].Keys, buf) && within(img.Rows[row].Vals, buf) && within(agent.TrustedPeers(), buf) && within(agent.RatedProducts(), buf)
	if adopted != (littleEndian && adoptEntries) {
		t.Fatalf("aligned decode adopted its arrays: %v, on a GOARCH that can: %v", adopted, littleEndian && adoptEntries)
	}
	cagent := copied.Community.Agent(copied.Community.Agents()[0])
	if within(copied.Rows[row].Keys, mbuf) || within(copied.Rows[row].Vals, mbuf) || within(cagent.TrustedPeers(), mbuf) || within(cagent.RatedProducts(), mbuf) {
		t.Fatal("misaligned decode adopted an array")
	}
}

// statementSection locates section id's parts in a v3 file: the offsets
// of its row ends, of its pad count byte and of its first entry.
func statementSection(t *testing.T, data []byte, id uint32, agents int) (ends, pad, entries int) {
	t.Helper()
	secs, _, err := split(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := secs[id]
	ends = s.at
	pad = ends + 4*agents
	entries = pad + 1 + int(data[pad])
	if entries%8 != 0 || entries >= s.at+len(s.b) {
		t.Fatalf("fixture: section %d's entries at %d", id, entries)
	}
	return ends, pad, entries
}

// TestArrayFaults: the checksums vouch for the bytes, not for the writer.
// A v3 file whose pads are not zero, whose pad does not align the array
// after it, or whose row ends decrease or count other than the entries
// the section holds is corrupt — through both decode paths, in both
// modes for the statement sections.
func TestArrayFaults(t *testing.T) {
	img := testImage(t, 7)
	data := Encode(img)
	n := img.Community.NumAgents()
	u32 := func(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

	type fault struct {
		name, want string
		spoil      func(b []byte)
	}
	var faults []fault
	for _, id := range []uint32{secTrust, secRatings} {
		ends, pad, entries := statementSection(t, data, id, n)
		last := binary.LittleEndian.Uint32(data[ends+4*(n-1):])
		faults = append(faults,
			fault{fmt.Sprintf("section %d: entry pad", id), "non-zero pad in", func(b []byte) { b[entries+4] = 1 }},
			fault{fmt.Sprintf("section %d: ends decrease", id), "row ends decrease", func(b []byte) { u32(b, ends, last+1) }},
			fault{fmt.Sprintf("section %d: ends overrun", id), "row ends count", func(b []byte) { u32(b, ends+4*(n-1), last+1) }},
			fault{fmt.Sprintf("section %d: ends fall short", id), "row ends count", func(b []byte) { u32(b, ends+4*(n-1), last-1) }},
			fault{fmt.Sprintf("section %d: misaligned start", id), "not 8-aligned", func(b []byte) { b[pad] = (b[pad] + 1) % 8 }},
			fault{fmt.Sprintf("section %d: pad of 8", id), "not 8-aligned", func(b []byte) { b[pad] += 8 }},
		)
		if data[pad] > 0 {
			faults = append(faults, fault{fmt.Sprintf("section %d: array pad", id), "non-zero pad before", func(b []byte) { b[pad+1] = 1 }})
		}
	}
	secs, _, _ := split(data, nil)
	d := secs[secProfmat].decoder()
	d.uv()
	d.bytes(4*n, "lengths")
	keyPad := d.at + d.off
	d.align("keys")
	if d.err != nil {
		t.Fatal(d.err)
	}
	faults = append(faults,
		fault{"profmat: misaligned keys", "not 8-aligned", func(b []byte) { b[keyPad] = (b[keyPad] + 1) % 8 }},
		fault{"profmat: trailing bytes", "after the profmat norms", nil},
	)
	if data[keyPad] > 0 {
		faults = append(faults, fault{"profmat: key pad", "non-zero pad before", func(b []byte) { b[keyPad+1] = 1 }})
	}

	for _, f := range faults {
		var mut []byte
		if f.spoil != nil {
			mut = bytes.Clone(data)
			f.spoil(mut)
		} else {
			// One more byte in the PROFMAT record: re-frame the file.
			recs := recordsOf(t, data)
			for i, p := range recs {
				if binary.LittleEndian.Uint32(p) == secProfmat {
					recs[i] = append(p, 0)
				}
			}
			mut = sealed(recs...)
		}
		mut = reseal(mut)
		for _, statementsOnly := range []bool{false, true} {
			if statementsOnly && strings.HasPrefix(f.name, "profmat") {
				continue // PROFMAT goes unread
			}
			_, err := decodeBoth(t, mut, statementsOnly)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), f.want) {
				t.Fatalf("%s (statements only: %v): got %v, want ErrCorrupt naming %q", f.name, statementsOnly, err, f.want)
			}
		}
	}
}

// TestLoadSplitsAtPeers: Load reads a v3 file as two buffers, cut where
// the PEERS record begins, and decodes them to the image the whole file
// decodes to; a v1 file, and a file cut before its PEERS record, are
// read whole.
func TestLoadSplitsAtPeers(t *testing.T) {
	dir := t.TempDir()
	data := Encode(testImage(t, 7))
	write := func(name string, b []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	secs, _, err := split(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	peersAt := secs[secPeers].at - 4 - 8 // the section id, the frame header

	head, tail, err := readFile(write("v3.swc", data))
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != peersAt || !bytes.Equal(append(head, tail...), data) {
		t.Fatalf("cut at %d of %d bytes, want at PEERS, %d", len(head), len(data), peersAt)
	}
	got, err := decode(head, tail, testOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(data, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameImage(got, want); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"v1.swc": readFixture(t, "v1.swc"), "cut.swc": data[:peersAt-1]} {
		if head, tail, err := readFile(write(name, b)); err != nil || len(tail) != 0 || !bytes.Equal(head, b) {
			t.Fatalf("%s: read %d+%d bytes of %d (%v), want it whole", name, len(head), len(tail), len(b), err)
		}
	}
}

// TestV2FixtureGivesBackStatements: testdata/v2.swc, written by the last
// build whose format was v2 — Capture(snap, 11) of
// warmEngine(testCommunity(t, 12)), the community v1.swc holds — recovers
// on rung 1 as checkpoint-recompiled, with the statements its writer had,
// to an engine that serves what one compiled from scratch serves.
func TestV2FixtureGivesBackStatements(t *testing.T) {
	data := readFixture(t, "v2.swc")
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
	statements := func(c *model.Community) []byte {
		return Encode(&Image{Epoch: 1, Seq: 11, Options: testOptions(), Community: c})
	}
	writer := testCommunity(t, 12)
	if !bytes.Equal(statements(res.Engine.Snapshot().Community()), statements(writer)) {
		t.Fatal("the recovered statements differ from the writer's")
	}
	scratch, err := engine.New(writer, testOptions(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := recsDigest(t, res.Engine.Snapshot()), recsDigest(t, scratch.Snapshot()); got != want {
		t.Fatalf("recovered engine diverged from scratch:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
