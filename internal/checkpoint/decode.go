package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// Decode parses and validates a checkpoint file image. opt is the option
// set the caller intends to serve with; when the stored signature does
// not match it (or, for a taxonomy-less checkpoint, its Product-
// representation variant), Decode fails with ErrOptions. The returned
// image's Options field is the accepted variant. data is only read: any
// number of goroutines may decode one buffer at once. The image's rows and
// matrix may be views of data, so data must not change while it lives.
func Decode(data []byte, opt core.Options) (*Image, error) {
	return decode(data, nil, opt, false)
}

// decode is Decode over a file in two buffers, tail continuing head at a
// record boundary (Load's split; tail is nil for one buffer). The image's
// arrays are views of head, never of tail. With statementsOnly it ignores
// the stored option signature and stops after the statement sections,
// which mean the same under any options, so Restore compiles the image
// cold under opt — how Recover keeps the statements of a file written
// under other options, or in v1 or v2 (Decode fails one with errOlder).
// Every byte is still checksummed.
//
// After META, which decides the schedule, the sections decode as joined
// tasks, a fixed set:
//
//	(a) the checksum of every section no other task reads;
//	(b) TAXONOMY;
//	(c) PROFMAT and PEERS, which need only the agent count;
//	(d) the caller: AGENTS and PRODUCTS parsed into slices, then after
//	    the join registration, then TRUST rows beside RATINGS rows.
//
// A task checks a section's checksum before it decodes a byte of it (the
// one exception is the taxonomy's declared node count, read ahead as the
// descriptors' bound and checked against the built taxonomy), and decode
// returns nothing until every task has joined: of several faults, one,
// ranked (see verdict).
func decode(head, tail []byte, opt core.Options, statementsOnly bool) (*Image, error) {
	var secs map[uint32]section
	var ver uint32
	var err error
	// v1's header opens with the magic, and Load never splits it; a later
	// file opens with a record header.
	if bytes.HasPrefix(head, []byte(fileMagic)) {
		secs, err = deframe(append(head[:len(head):len(head)], tail...))
		ver = v1Version
	} else {
		secs, ver, err = split(head, tail)
	}
	if err == nil && ver != fileVersion && !statementsOnly {
		err = fmt.Errorf("%w (the file is v%d)", errOlder, ver)
	}
	if err != nil {
		return nil, err
	}
	var v verdict
	// read marks the sections tasks (b)-(d) read; (a) checks the rest.
	var read [secPeers + 1]bool
	read[secMeta] = true

	img := &Image{}
	var hasTax, hasMat bool
	var rawAgents, rawProducts uint64
	if d := v.open(secs, secMeta, "meta"); d != nil {
		img.Epoch, img.Seq = d.uv(), d.uv()
		sig := d.str()
		flags := d.u8()
		// The counts are validated against the agents/products sections
		// (count checks space in the section being decoded, and the
		// entries live there, not in meta).
		rawAgents, rawProducts = d.uv(), d.uv()
		hasTax, hasMat = flags&1 != 0, flags&2 != 0
		// The engine that wrote a taxonomy-less checkpoint ran the
		// options adapted to it; those are the variant to match.
		opt = opt.ForTaxonomy(hasTax)
		switch {
		case d.err != nil:
			v.note(secMeta, d.err)
		case sig != optSig(opt) && !statementsOnly:
			v.note(secMeta, fmt.Errorf("%w: file has %q, want %q", ErrOptions, sig, optSig(opt)))
		}
		img.Options = opt
	}
	if v.fault == nil {
		read[secTaxonomy] = hasTax
		read[secAgents], read[secProducts], read[secTrust], read[secRatings] = true, true, true, true
		read[secProfmat] = hasMat && !statementsOnly
		read[secPeers] = !statementsOnly
	}

	var wg sync.WaitGroup
	var rest verdict
	wg.Add(1)
	go func() {
		defer wg.Done()
		rest.checkRest(secs, read)
	}()
	if v.fault != nil {
		// No schedule without META: (a) checks every other section, so a
		// corrupt one still outranks the META fault or ErrOptions.
		wg.Wait()
		v.merge(&rest)
		return nil, v.fault
	}

	// (b) TAXONOMY, the longest task: it starts first.
	var tax *taxonomy.Taxonomy
	var tv verdict
	if hasTax {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := tv.open(secs, secTaxonomy, "taxonomy"); d != nil {
				var err error
				tax, err = decodeTaxonomy(d)
				tv.note(secTaxonomy, err)
			}
		}()
	}

	// (d) AGENTS before (c) starts, which needs their count. The section
	// order is the ordinal order, on the wire and in the community, so
	// every later section's ordinals index the community directly.
	var ids []model.AgentID
	var names []string
	if d := v.open(secs, secAgents, "agents"); d != nil {
		ids, names, err = decodeAgents(d, rawAgents)
		v.note(secAgents, err)
	}
	nAgents := len(ids)

	// (c) PROFMAT and PEERS. If AGENTS failed, nAgents is 0 and whatever
	// these report is outranked; their checksums still count.
	var rows []profmat.Row
	var peers []engine.PeersEntry
	var cv verdict
	if !statementsOnly {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if hasMat {
				if d := cv.open(secs, secProfmat, "profmat"); d != nil {
					var err error
					rows, err = decodeProfmat(d, nAgents)
					cv.note(secProfmat, err)
				}
			}
			if d := cv.open(secs, secPeers, "peers"); d != nil {
				var err error
				peers, err = decodePeers(d, nAgents)
				cv.note(secPeers, err)
			}
		}()
	}

	// (d) PRODUCTS, their descriptors bounded by the node count the
	// taxonomy section declares while (b) builds it; then the checksums of
	// the two statement sections the caller installs after the join.
	topics := -1 // no taxonomy: a descriptor is an opaque label
	if hasTax {
		topics = declaredTopics(secs[secTaxonomy])
	}
	var prods []model.Product
	if d := v.open(secs, secProducts, "products"); d != nil {
		prods, err = decodeProducts(d, rawProducts, topics)
		v.note(secProducts, err)
	}
	dt := v.open(secs, secTrust, "trust")
	dr := v.open(secs, secRatings, "ratings")

	wg.Wait()
	v.merge(&rest)
	v.merge(&tv)
	v.merge(&cv)
	if v.fault != nil && v.rank < decoderRank {
		return nil, v.fault
	}
	if tax != nil && tax.Len() != topics {
		v.note(secProducts, fmt.Errorf("%w: descriptors bounded by %d topics, the taxonomy has %d", ErrCorrupt, topics, tax.Len()))
	}

	// Registration, then TRUST beside RATINGS: one row per agent, handed
	// to the community whole — in v3 a view of the file buffer. The rows
	// were written in TrustedPeers / RatedProducts order, which the
	// loaders verify and then adopt as the agents' rows. The two loaders
	// write disjoint fields of records this community owns
	// (model.Community.LoadTrust).
	var comm *model.Community
	if v.clear(secAgents) {
		comm = model.NewCommunitySized(tax, nAgents, len(prods))
		for i, id := range ids {
			comm.AddAgent(id).Name = names[i]
		}
		if comm.NumAgents() != nAgents {
			v.note(secAgents, fmt.Errorf("%w: %d distinct agents for a count of %d", ErrCorrupt, comm.NumAgents(), nAgents))
		}
	}
	if v.clear(secProducts) {
		for _, p := range prods {
			comm.AddProduct(p)
		}
		if comm.NumProducts() != len(prods) {
			v.note(secProducts, fmt.Errorf("%w: %d distinct products for a count of %d", ErrCorrupt, comm.NumProducts(), len(prods)))
		}
	}
	if v.clear(secProducts) {
		// A missing section is already noted, and its open returned nil.
		var trustErr error
		rows := loadTable
		if ver <= v2Version {
			rows = loadRows
		}
		if dt != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				trustErr = rows(dt, nAgents, nAgents, "trust", comm.LoadTrust)
			}()
		}
		if dr != nil {
			v.note(secRatings, rows(dr, nAgents, len(prods), "ratings", comm.LoadRatings))
		}
		wg.Wait()
		v.note(secTrust, trustErr)
	}
	if v.fault != nil {
		return nil, v.fault
	}
	img.Community, img.Rows, img.Peers = comm, rows, peers
	return img, nil
}

// verdict is the lowest-ranked fault a task saw (after the join, every
// task's), so one input yields one error: structure (split's or
// deframe's, before any task starts), then section checksums by id, then
// META's fault or ErrOptions (id 1), then the first failed decoder by id.
// Checksums outrank ErrOptions because Recover keeps the statements of a
// file that fails with ErrOptions alone.
type verdict struct {
	rank  uint64 // a section id; a decoder fault's plus decoderRank
	fault error
}

const decoderRank = 1 << 32

func (v *verdict) rankFault(rank uint64, err error) {
	if err != nil && (v.fault == nil || rank < v.rank) {
		v.rank, v.fault = rank, err
	}
}

// note records a decoder fault of section id.
func (v *verdict) note(id uint32, err error) { v.rankFault(decoderRank+uint64(id), err) }

// verify checks one section's stored checksum, noting a mismatch.
func (v *verdict) verify(id uint32, s section) bool {
	if s.rec.Intact() {
		return true
	}
	v.rankFault(uint64(id), fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id))
	return false
}

// open returns a decoder over section id once its checksum has passed;
// nil, with the fault noted, when it is missing or fails the checksum.
func (v *verdict) open(secs map[uint32]section, id uint32, what string) *dec {
	s, ok := secs[id]
	if !ok {
		v.note(id, fmt.Errorf("%w: missing %s section", ErrCorrupt, what))
		return nil
	}
	if !v.verify(id, s) {
		return nil
	}
	return s.decoder()
}

// checkRest is task (a): the checksum of every section the other tasks do
// not read.
func (v *verdict) checkRest(secs map[uint32]section, read [secPeers + 1]bool) {
	for id, s := range secs {
		if id >= uint32(len(read)) || !read[id] {
			v.verify(id, s)
		}
	}
}

func (v *verdict) merge(o *verdict) { v.rankFault(o.rank, o.fault) }

// clear reports that no checksum and no section up to id has failed.
func (v *verdict) clear(id uint32) bool {
	return v.fault == nil || v.rank > decoderRank+uint64(id)
}

// decodeTaxonomy rebuilds the TAXONOMY section: one bulk build over the
// primary parents — which checks what a per-node Add would (parent
// before child, well-formed name, qualified names unique) — then the
// extra parents edge by edge.
func decodeTaxonomy(d *dec) (*taxonomy.Taxonomy, error) {
	root := d.str()
	n := d.count(d.uv(), 3, "taxonomy node") // a name length, a parent and an edge count each
	names := make([]string, n)
	parents := make([]taxonomy.Topic, n)
	type edge struct{ parent, child taxonomy.Topic }
	var extra []edge
	for i := 0; i < n && d.err == nil; i++ {
		names[i] = d.str()
		parents[i] = taxonomy.Topic(d.ord(n+1, "topic"))
		nextra := d.count(d.uv(), 1, "taxonomy edge")
		for j := 0; j < nextra; j++ {
			extra = append(extra, edge{parent: taxonomy.Topic(d.ord(n+1, "topic")), child: taxonomy.Topic(i + 1)})
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	tax, err := taxonomy.Build(root, names, parents)
	if err != nil {
		return nil, fmt.Errorf("%w: taxonomy rebuild: %v", ErrCorrupt, err)
	}
	for _, e := range extra {
		if err := tax.AddEdge(e.parent, e.child); err != nil {
			return nil, fmt.Errorf("%w: taxonomy rebuild: %v", ErrCorrupt, err)
		}
	}
	return tax, nil
}

// declaredTopics is the node count the TAXONOMY section's header
// declares: the root plus the count decodeTaxonomy reads from the same
// bytes, so a taxonomy that builds has exactly this many topics.
func declaredTopics(s section) int {
	d := s.decoder()
	d.bytes(d.count(d.uv(), 1, "taxonomy root"), "taxonomy root")
	return d.count(d.uv(), 3, "taxonomy node") + 1
}

// decodeAgents parses the AGENTS section, its count bounded by the
// section before it sizes anything.
func decodeAgents(d *dec, raw uint64) ([]model.AgentID, []string, error) {
	n := d.count(raw, 2, "agent") // two length-prefixed strings each
	ids := make([]model.AgentID, n)
	names := make([]string, n)
	for i := 0; i < n && d.err == nil; i++ {
		ids[i] = model.AgentID(d.str())
		names[i] = d.str()
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return ids, names, nil
}

// decodeProducts parses the PRODUCTS section. A descriptor names a topic
// of the file's own taxonomy, one of topics; without a taxonomy (topics
// < 0) it is an opaque label, kept as written.
func decodeProducts(d *dec, raw uint64, topics int) ([]model.Product, error) {
	n := d.count(raw, 4, "product") // three strings plus a descriptor count each
	prods := make([]model.Product, n)
	for i := 0; i < n && d.err == nil; i++ {
		p := &prods[i]
		p.ID, p.Title, p.ISBN = model.ProductID(d.str()), d.str(), d.str()
		if nt := d.count(d.uv(), 1, "descriptor"); nt > 0 {
			p.Topics = make([]taxonomy.Topic, nt)
			for j := range p.Topics {
				if topics >= 0 {
					p.Topics[j] = taxonomy.Topic(d.ord(topics, "descriptor"))
				} else {
					p.Topics[j] = taxonomy.Topic(d.uv())
				}
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return prods, nil
}

// loadTable installs one v3 statement section — per agent a u32 row
// end, a pad, then the entries — a row at a time through load, which
// checks it, each ordinal's range included, and adopts it: each row is a
// view of the section's entry array, cut with its capacity at its end, so
// a write to a row copies it first (model.Agent.writable) and never
// reaches the next one. Its signature is loadRows'; it has no use for the
// ordinal limit.
func loadTable(d *dec, nAgents, _ int, what string, load func(int32, model.Row) error) error {
	ends := d.bytes(4*d.count(uint64(nAgents), 4, what+" row end"), what+" row ends")
	prev := uint32(0)
	for a := 0; a < len(ends) && d.err == nil; a += 4 {
		end := binary.LittleEndian.Uint32(ends[a:])
		if end < prev {
			d.err = fmt.Errorf("%w: %s row ends decrease at agent %d", ErrCorrupt, what, a/4)
		}
		prev = end
	}
	d.align(what + " entries")
	if d.err == nil && (d.rem()%entrySize != 0 || uint64(prev) != uint64(d.rem()/entrySize)) {
		d.err = fmt.Errorf("%w: the %s row ends count %d entries, the section holds %d bytes of them", ErrCorrupt, what, prev, d.rem())
	}
	arena := d.entries(int(prev), what)
	if d.err != nil {
		return d.err
	}
	start := uint32(0)
	for a := 0; a < nAgents; a++ {
		end := binary.LittleEndian.Uint32(ends[4*a:])
		if err := load(int32(a), arena[start:end:end]); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
		}
		start = end
	}
	return nil
}

// loadRows installs one v1 or v2 statement section — per agent a count,
// then (varint ordinal, value) pairs — a row at a time through load,
// which adopts it. The rows are decoded into one arena, counted out
// first, so no append moves a row already handed over.
func loadRows(d *dec, nAgents, limit int, what string, load func(int32, model.Row) error) error {
	arena := make(model.Row, 0, min(entries(*d, nAgents, what), len(d.b)))
	for a := 0; a < nAgents; a++ {
		n := d.count(d.uv(), 9, what)
		start := len(arena)
		for j := 0; j < n; j++ {
			arena = append(arena, model.Entry{Ord: d.ord(limit, what), Val: d.f64()})
		}
		if d.err != nil {
			return d.err
		}
		if err := load(int32(a), arena[start:]); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
		}
	}
	return nil
}

// entries counts the (ordinal, value) pairs of a v1 or v2 statement
// section by skipping over them; a fault is left for the decode to
// report.
func entries(d dec, nAgents int, what string) int {
	total := 0
	for a := 0; a < nAgents && d.err == nil; a++ {
		n := d.count(d.uv(), 9, what) // a varint ordinal and an f64 each
		for j := 0; j < n && d.err == nil; j++ {
			d.uv()
			d.u64()
		}
		total += n
	}
	return total
}

// decodeProfmat cuts the profile rows from the section's two arenas —
// views of the file buffer where they can be (arrays.go) — so a restored
// matrix keeps the compiled form's property that rows alias contiguous
// storage. Only the row headers are allocated.
func decodeProfmat(d *dec, nAgents int) ([]profmat.Row, error) {
	n := d.count(d.uv(), 4, "profmat row")
	if d.err == nil && n != nAgents {
		return nil, fmt.Errorf("%w: %d profmat rows for %d agents", ErrCorrupt, n, nAgents)
	}
	lens := d.bytes(4*n, "profmat row lengths")
	total := 0
	for i := 0; i < len(lens); i += 4 {
		total += int(binary.LittleEndian.Uint32(lens[i:]))
	}
	if d.err == nil && uint64(total) > uint64(d.rem())/12+1 {
		return nil, fmt.Errorf("%w: absurd profmat nnz %d", ErrCorrupt, total)
	}
	d.align("profmat key arena")
	keys := d.int32s(total, "profmat key arena")
	d.align("profmat value arena")
	vals := d.float64s(total, "profmat value arena")
	norms := d.bytes(16*n, "profmat norms")
	if d.err == nil && d.rem() != 0 {
		d.err = fmt.Errorf("%w: %d bytes after the profmat norms", ErrCorrupt, d.rem())
	}
	if d.err != nil {
		return nil, d.err
	}
	rows := make([]profmat.Row, n)
	off := 0
	for i := range rows {
		k := int(binary.LittleEndian.Uint32(lens[4*i:]))
		rows[i] = profmat.Row{
			Keys: keys[off : off+k : off+k],
			Vals: vals[off : off+k : off+k],
			Norm: math.Float64frombits(binary.LittleEndian.Uint64(norms[16*i:])),
			Sum:  math.Float64frombits(binary.LittleEndian.Uint64(norms[16*i+8:])),
		}
		off += k
	}
	return rows, nil
}

// decodePeers checks every PEERS entry's frame and rank ordinals, so a
// corrupt file fails Load; the ranks themselves stay in the file bytes
// until the restored neighborhood is first read (peerRanks).
func decodePeers(d *dec, nAgents int) ([]engine.PeersEntry, error) {
	nw := d.count(d.uv(), engine.PipeSize+2, "peers entry")
	peers := make([]engine.PeersEntry, 0, nw)
	var pipe string
	for i := 0; i < nw && d.err == nil; i++ {
		agent := d.ord(nAgents, "agent ordinal")
		// Not one string per entry: nearly every key is the default
		// pipeline's, so an entry whose key repeats the last one shares it.
		if b := d.bytes(engine.PipeSize, "peers pipe"); string(b) != pipe {
			pipe = string(b)
		}
		block := d.bytes(peerRankSize*d.count(d.uv(), peerRankSize, "peer rank"), "peer ranks")
		for j := 0; j < len(block) && d.err == nil; j += peerRankSize {
			if uint64(binary.LittleEndian.Uint32(block[j:])) >= uint64(nAgents) {
				d.fail("agent ordinal")
			}
		}
		if d.err != nil {
			break
		}
		peers = append(peers, engine.PeersEntry{Agent: agent, Pipe: pipe, Ranks: peerRanks(block).decode})
	}
	if d.err != nil {
		return nil, d.err
	}
	return peers, nil
}

// peerRanks is one PEERS entry's ranks, still in the file: its
// fixed-width records, whose agent ordinals decodePeers already checked.
type peerRanks []byte

// decode materializes the ranks from their records alone. Called on a
// restored neighborhood's first read, and by Encode.
func (p peerRanks) decode() []core.PeerRank {
	peers := make([]core.PeerRank, len(p)/peerRankSize)
	for j := range peers {
		b := p[j*peerRankSize:]
		peers[j] = core.NewPeerRank(int32(binary.LittleEndian.Uint32(b)), math.Float64frombits(binary.LittleEndian.Uint64(b[4:])))
		peers[j].Sim = math.Float64frombits(binary.LittleEndian.Uint64(b[12:]))
		peers[j].SimOK = b[20] == 1
		peers[j].Weight = math.Float64frombits(binary.LittleEndian.Uint64(b[21:]))
	}
	return peers
}
