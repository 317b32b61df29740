package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/frame"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// Image is one decoded (or captured) checkpoint: everything a restart
// needs to serve the first warm request without recomputing trust or
// similarity state. Encode(Decode(Encode(img))) is byte-identical — the
// round-trip property the format tests pin.
type Image struct {
	// Epoch and Seq are the epoch↔WAL-sequence mapping: the snapshot
	// reflects every WAL record with sequence <= Seq, published as Epoch.
	Epoch uint64
	Seq   uint64
	// Options is the engine option set the snapshot was compiled under;
	// Load fails with ErrOptions when it does not match the caller's.
	Options core.Options
	// Community is the full statement state (agents, products, trust,
	// ratings) over its taxonomy.
	//nolint:snapshotpin -- an Image is a transient encode/decode carrier scoped to one Capture/Encode or Load/Restore call, not cached serving state; it never outlives the epoch it describes
	Community *model.Community
	// Rows holds the compiled CSR profile rows, parallel to
	// Community.Agents(); nil when the image carries statements only.
	Rows []profmat.Row
	// Peers is the warm neighborhood cache in insertion order (oldest
	// first, so replaying it through the cache reproduces the order its
	// SIEVE eviction walks).
	// A decoded image's entries decode their ranks when Ranks is called.
	Peers []engine.PeersEntry
}

// optSig fingerprints the option fields that shape compiled state, as
// the pipeline resolves them: it signs the defaulted options, so two
// configurations share warm state exactly when they run the same
// pipeline — an image written when a zero neighborhood bound meant
// "everyone" does not pass for one written under today's defaults.
// Options.Candidates is a func and deliberately excluded: a custom
// candidate hook cannot be serialized, and engines using one should not
// share checkpoints with engines that do not — so its presence is part
// of the signature.
func optSig(o core.Options) string {
	o = o.WithDefaults()
	return fmt.Sprintf("metric=%d as=%+v adv=%+v pt=%+v cf=%d/%d/%g/%t tt=%g mn=%d cand=%t a=%g/%t merge=%d content=%d boost=%g",
		o.Metric, o.Appleseed, o.Advogato, o.PathTrust,
		o.CF.Measure, o.CF.Representation, o.CF.ProfileScore, o.CF.WeightByRating,
		o.TrustThreshold, o.MaxNeighbors, o.Candidates != nil,
		o.Alpha, o.AlphaSet, o.Merge, o.Content, o.ContentBoost)
}

// Capture snapshots the serving state of snap as an Image covering WAL
// records up to seq. It reads only immutable snapshot state (plus the
// warm caches, which are concurrency-safe), so it can run off the ingest
// worker while the snapshot keeps serving.
func Capture(snap *engine.Snapshot, seq uint64) *Image {
	img := &Image{
		Epoch:     snap.Epoch(),
		Seq:       seq,
		Options:   snap.Options(),
		Community: snap.Community(),
		Peers:     snap.ExportPeers(),
	}
	comm := img.Community
	if mat := snap.Recommender().Filter().Matrix(); mat != nil {
		// Row i of the image is agent ordinal i — the matrix's own layout.
		ids := comm.Agents()
		img.Rows = make([]profmat.Row, len(ids))
		for i := range ids {
			if r := mat.Row(int32(i)); r != nil {
				img.Rows[i] = *r
			}
		}
	}
	return img
}

// Encode serializes the image into the checkpoint file format: WriteImage's
// writer, pointed at a buffer.
func Encode(img *Image) []byte {
	var buf bytes.Buffer
	if err := write(&buf, img); err != nil {
		panic(err) // a section over 4 GiB, which no buffer here holds either
	}
	return buf.Bytes()
}

// recordWriter streams a checkpoint: each record is encoded into one
// reused buffer, sealed and written before the next one begins.
type recordWriter struct {
	enc // the record being encoded, frame header first
	w   io.Writer
	n   uint32 // records begun: the sections, then the trailer
	err error  // the first failure; every later record is dropped
}

// begin starts the record of section id (or the trailer).
func (r *recordWriter) begin(id uint32) {
	r.b = frame.Start(r.b[:0])
	r.u32(id)
	r.n++
}

// end seals the record and writes it.
func (r *recordWriter) end() {
	if n := len(r.b) - frame.HeaderSize; r.err == nil && uint64(n) > math.MaxUint32 {
		r.err = fmt.Errorf("checkpoint: a %d-byte section is over the 4 GiB a record holds", n)
	}
	if r.err == nil {
		frame.Seal(r.b)
		_, r.err = r.w.Write(r.b)
	}
}

// write streams img to w: header, sections, trailer.
func write(w io.Writer, img *Image) error {
	comm := img.Community
	agents := comm.Agents()
	products := comm.Products()
	tax := comm.Taxonomy()

	// The buffer starts as large as the larger arena, nearly all of the
	// file, so neither grows it by copying (it reserves 2 GiB at most; end
	// refuses a record over the 4 GiB a frame holds).
	const uv = binary.MaxVarintLen64
	peersLen, matLen := uv, uv
	for _, entry := range img.Peers {
		peersLen += 2*uv + len(entry.Pipe) + peerRankSize*len(entry.Ranks())
	}
	for i := range img.Rows {
		matLen += 4 + 12*img.Rows[i].NNZ() + 16
	}
	largest := min(max(peersLen, matLen), math.MaxInt32)
	r := &recordWriter{w: w, enc: enc{b: make([]byte, 0, frame.HeaderSize+4+largest)}}

	r.b = append(frame.Start(r.b), fileMagic...)
	r.u32(fileVersion)
	r.end()

	// META: the epoch↔sequence mapping, option signature, and shape flags
	// (1 taxonomy, 2 profile matrix).
	r.begin(secMeta)
	r.uv(img.Epoch)
	r.uv(img.Seq)
	r.str(optSig(img.Options))
	var flags uint8
	if tax != nil {
		flags |= 1
	}
	if img.Rows != nil {
		flags |= 2
	}
	r.u8(flags)
	r.uv(uint64(len(agents)))
	r.uv(uint64(len(products)))
	r.end()

	// TAXONOMY: nodes in topic order, parents before children, so a
	// rebuild is one taxonomy.Build over the primary parents and an AddEdge
	// per extra parent.
	if tax != nil {
		r.begin(secTaxonomy)
		r.str(tax.Name(taxonomy.Root))
		r.uv(uint64(tax.Len() - 1))
		for d := taxonomy.Topic(1); int(d) < tax.Len(); d++ {
			r.str(tax.Name(d))
			parents := tax.Parents(d)
			r.uv(uint64(parents[0]))
			r.uv(uint64(len(parents) - 1))
			for _, p := range parents[1:] {
				r.uv(uint64(p))
			}
		}
		r.end()
	}

	// AGENTS: insertion order defines the dense ordinal every other
	// section references.
	r.begin(secAgents)
	for _, id := range agents {
		r.str(string(id))
		r.str(comm.Agent(id).Name)
	}
	r.end()

	// PRODUCTS: catalog entries with their topic descriptors.
	r.begin(secProducts)
	for _, pid := range products {
		p := comm.Product(pid)
		r.str(string(p.ID))
		r.str(p.Title)
		r.str(p.ISBN)
		r.uv(uint64(len(p.Topics)))
		for _, d := range p.Topics {
			r.uv(uint64(d))
		}
	}
	r.end()

	// TRUST and RATINGS: per agent its statements in the deterministic
	// TrustedPeers / RatedProducts order, each naming its target by the
	// community's interned ordinal — the wire's (insertion order on both
	// sides).
	r.begin(secTrust)
	for _, id := range agents {
		r.row(comm.Agent(id).TrustedPeers())
	}
	r.end()
	r.begin(secRatings)
	for _, id := range agents {
		r.row(comm.Agent(id).RatedProducts())
	}
	r.end()

	// PROFMAT: the CSR arenas — row lengths, then the key arena, the
	// value arena, and per-row norm/sum, all fixed-width so a loader can
	// walk them without per-entry branching.
	if img.Rows != nil {
		r.begin(secProfmat)
		r.uv(uint64(len(img.Rows)))
		for i := range img.Rows {
			r.u32(uint32(img.Rows[i].NNZ()))
		}
		for i := range img.Rows {
			for _, k := range img.Rows[i].Keys {
				r.u32(uint32(k))
			}
		}
		for i := range img.Rows {
			for _, v := range img.Rows[i].Vals {
				r.f64(v)
			}
		}
		for i := range img.Rows {
			r.f64(img.Rows[i].Norm)
			r.f64(img.Rows[i].Sum)
		}
		r.end()
	}

	// PEERS: warm neighborhoods, oldest first; the pipe key as the engine
	// spells it, then fixed-width ranks, which the decoder checks in one
	// stride and decodes from the file bytes on the entry's first read.
	r.begin(secPeers)
	r.uv(uint64(len(img.Peers)))
	for _, entry := range img.Peers {
		ranks := entry.Ranks()
		r.uv(uint64(entry.Agent))
		r.b = append(r.b, entry.Pipe...)
		r.uv(uint64(len(ranks)))
		for _, pr := range ranks {
			r.u32(uint32(pr.Ord()))
			r.f64(pr.Trust)
			r.f64(pr.Sim)
			if pr.SimOK {
				r.u8(1)
			} else {
				r.u8(0)
			}
			r.f64(pr.Weight)
		}
	}
	r.end()

	r.begin(trailerID)
	r.u32(r.n - 1) // the sections
	r.end()
	return r.err
}

// Restore builds a serving engine from the image: the compiled rows and
// warm neighborhoods are installed directly — no Appleseed, no Eq. 3, no
// similarity recompute.
func (img *Image) Restore(cfg engine.Config) (*engine.Engine, error) {
	r := engine.Restore{
		Epoch:     img.Epoch,
		Community: img.Community,
		Peers:     img.Peers,
	}
	if img.Rows != nil {
		// Image rows are in agent-ordinal order, which is exactly the
		// matrix's positional layout — restore is a wrap, not a rebuild.
		r.Matrix = profmat.Restore(img.Rows)
	}
	return engine.NewRestored(r, img.Options, cfg)
}

// fileName names the checkpoint covering WAL records up to seq.
func fileName(seq uint64) string { return fmt.Sprintf("ckpt-%016x.swc", seq) }

// parseFileName extracts the covered sequence number; ok is false for
// unrelated files (including in-flight temporaries).
func parseFileName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".swc") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[5:len(name)-4], 16, 64)
	return seq, err == nil
}

// Info describes one checkpoint file on disk.
type Info struct {
	Path string
	Seq  uint64
}

// List returns the checkpoint files in dir, newest (highest sequence)
// first — the order the recovery ladder tries them in. A missing
// directory is an empty list, not an error.
func List(dir string) ([]Info, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read dir %s: %w", dir, err)
	}
	var out []Info
	for _, e := range entries {
		if seq, ok := parseFileName(e.Name()); ok {
			out = append(out, Info{Path: filepath.Join(dir, e.Name()), Seq: seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out, nil
}

// WriteImage atomically persists the image into dir as ckpt-<seq>.swc:
// stream it to a unique temporary as it is encoded, fsync, rename. wrap,
// when non-nil, interposes on the file handle (the fault-injection seam).
// On any error the temporary is removed and the directory is left with
// only complete, checksummed checkpoints.
func WriteImage(dir string, img *Image, wrap func(*os.File) frame.File) (path string, err error) {
	final := filepath.Join(dir, fileName(img.Seq))
	tmp, err := os.CreateTemp(dir, fileName(img.Seq)+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	var f frame.File = tmp
	if wrap != nil {
		f = wrap(tmp)
	}
	fail := func(stage string, cause error) (string, error) {
		_ = f.Close()          //nolint:durableerr -- the write already failed; the temp file is about to be discarded
		_ = os.Remove(tmpName) // best-effort cleanup of a failed temp; recovery ignores temporaries either way
		return "", fmt.Errorf("checkpoint: %s: %w", stage, cause)
	}
	if err := write(f, img); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		return fail("rename", err)
	}
	frame.SyncDir(dir)
	return final, nil
}

// Load reads and fully validates the checkpoint at path. See Decode for
// the option-signature contract.
func Load(path string, opt core.Options) (*Image, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, opt)
}

func readFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	return data, nil
}

// Prune keeps the newest keep checkpoint files in dir and removes the
// rest, plus any stale write temporaries left by a crash mid-write.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	infos, err := List(dir)
	if err != nil {
		return err
	}
	for _, info := range infos[min(keep, len(infos)):] {
		if err := os.Remove(info.Path); err != nil {
			return fmt.Errorf("checkpoint: prune: %w", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: prune: %w", err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".swc.tmp-") {
			_ = os.Remove(filepath.Join(dir, e.Name())) // stale temporaries are garbage by definition; removal is best-effort hygiene
		}
	}
	return nil
}
