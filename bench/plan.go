package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"swrec/internal/datagen"
	"swrec/internal/model"
	"swrec/internal/wal"
)

// A plan is a pure function of (workload, seed): every choice below is
// a counter-based draw (datagen.Uniform01 / datagen.Zipf) from a stream
// derived from the seed, never from generator state, so a plan can be
// produced cycle by cycle and still be the same list every run.

const (
	probeAgents = 64  // held out of every plan; the correctness probe's set
	topN        = 10  // /recommendations?n=
	zipfS       = 1.1 // agent and product popularity skew
)

// Draw streams. Each decision hashes its own derived seed, so adding a
// stream never shifts another stream's draws.
const (
	strAgentPerm = iota + 1
	strProductPerm
	strReadMix
	strReadAgent
	strReadProduct
	strWriteKind
	strWriteAgent
	strWritePeer
	strWriteProduct
	strWriteValue
	strHotAgent
)

func streamSeed(seed int64, stream int64) int64 {
	const stride = int64(-7046029254386353131) // golden-ratio stride (0x9E3779B97F4A7C15); wraps
	return seed + stream*stride
}

// shuffled returns a seeded Fisher-Yates permutation of 0..n-1.
func shuffled(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(datagen.Uniform01(seed, uint64(i)) * float64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// population is the addressable side of one community: agents and
// products in popularity-rank order (a seeded permutation, so rank 0 is
// not always a0), with the probe set held out.
type population struct {
	probe    []model.AgentID
	agents   []model.AgentID
	products []model.ProductID

	readAgent, readProduct, hotAgent    *datagen.Zipf
	writeAgent, writePeer, writeProduct *datagen.Zipf
}

func newPopulation(comm *model.Community, seed int64) (*population, error) {
	ids, prods := comm.Agents(), comm.Products()
	if len(ids) < 2*probeAgents || len(prods) == 0 {
		return nil, fmt.Errorf("community too small: %d agents, %d products", len(ids), len(prods))
	}
	p := &population{}
	for i, j := range shuffled(streamSeed(seed, strAgentPerm), len(ids)) {
		if i < probeAgents {
			p.probe = append(p.probe, ids[j])
		} else {
			p.agents = append(p.agents, ids[j])
		}
	}
	for _, j := range shuffled(streamSeed(seed, strProductPerm), len(prods)) {
		p.products = append(p.products, prods[j])
	}
	zipf := func(stream int64, n int) *datagen.Zipf {
		return datagen.NewZipf(streamSeed(seed, stream), zipfS, n)
	}
	p.readAgent = zipf(strReadAgent, len(p.agents))
	p.readProduct = zipf(strReadProduct, len(p.products))
	p.hotAgent = zipf(strHotAgent, len(p.agents))
	p.writeAgent = zipf(strWriteAgent, len(p.agents))
	p.writePeer = zipf(strWritePeer, len(p.agents))
	p.writeProduct = zipf(strWriteProduct, len(p.products))
	return p, nil
}

// Endpoint classes of the read mix.
const (
	epRecommendations = iota
	epNeighbors
	epProfile
	epAgent
	epProduct
	numEndpoints
)

var endpointNames = [numEndpoints]string{"recommendations", "neighbors", "profile", "agent", "product"}

// warmMix is the cumulative share of each endpoint class in warm-read:
// 60 % recommendations, 15 % neighbors, 10 % profile, 7 % agent detail,
// 8 % product detail.
var warmMix = [numEndpoints]float64{0.60, 0.75, 0.85, 0.92, 1.00}

func agentPath(id model.AgentID, suffix string) string {
	return "/v1/agents/" + url.PathEscape(string(id)) + suffix
}

func readPath(ep int, agent model.AgentID, product model.ProductID) string {
	switch ep {
	case epRecommendations:
		return agentPath(agent, "/recommendations?n="+strconv.Itoa(topN))
	case epNeighbors:
		return agentPath(agent, "/neighbors?n=25")
	case epProfile:
		return agentPath(agent, "/profile?n=15")
	case epAgent:
		return agentPath(agent, "")
	default:
		return "/v1/products/" + url.PathEscape(string(product))
	}
}

func newGET(path string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: GET %s: %v", path, err)) // paths are built from escaped IDs; only a harness bug gets here
	}
	return req
}

func newPOST(path, body string) *http.Request {
	req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
	if err != nil {
		panic(fmt.Sprintf("bench: POST %s: %v", path, err)) // as newGET
	}
	return req
}

// fingerprinter folds a plan's operations into FNV-64a.
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() fingerprinter { return fingerprinter{fnv.New64a()} }

func (f fingerprinter) op(method, path, body string) {
	fmt.Fprintf(f.h, "%s %s %s\n", method, path, body)
}

func (f fingerprinter) sum() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// readPlan is a list of GETs: the distinct requests, built once and
// reused (a GET carries no body, and the handler does not write to the
// request), and the order they are issued in.
type readPlan struct {
	reqs  []*http.Request
	ep    []uint8         // endpoint class of reqs[i]
	agent []model.AgentID // agent reqs[i] is about ("" for a product)
	seq   []int32         // indices into reqs
	fp    string
}

// warmReadLen is the length of the warm-read sequence; the measured
// phase cycles through it when a run outlasts it.
const warmReadLen = 1 << 18

// warmReadPlan draws warmReadLen GETs: endpoint by warmMix, agent and
// product by Zipf rank.
func warmReadPlan(pop *population, seed int64) *readPlan {
	pl := &readPlan{seq: make([]int32, warmReadLen)}
	index := make(map[string]int32)
	fp := newFingerprinter()
	mixSeed := streamSeed(seed, strReadMix)
	for i := range pl.seq {
		u := datagen.Uniform01(mixSeed, uint64(i))
		ep := 0
		for u >= warmMix[ep] {
			ep++
		}
		agent := pop.agents[pop.readAgent.Pick(uint64(i))]
		product := pop.products[pop.readProduct.Pick(uint64(i))]
		path := readPath(ep, agent, product)
		fp.op(http.MethodGet, path, "")
		j, ok := index[path]
		if !ok {
			j = int32(len(pl.reqs))
			index[path] = j
			pl.reqs = append(pl.reqs, newGET(path))
			pl.ep = append(pl.ep, uint8(ep))
			if ep == epProduct {
				agent = ""
			}
			pl.agent = append(pl.agent, agent)
		}
		pl.seq[i] = j
	}
	pl.fp = fp.sum()
	return pl
}

// coldReadPlan is one /recommendations per agent, every agent outside
// the probe set exactly once, in rank order (a seeded permutation).
func coldReadPlan(pop *population) *readPlan {
	pl := &readPlan{}
	fp := newFingerprinter()
	for i, id := range pop.agents {
		path := readPath(epRecommendations, id, "")
		fp.op(http.MethodGet, path, "")
		pl.reqs = append(pl.reqs, newGET(path))
		pl.ep = append(pl.ep, epRecommendations)
		pl.agent = append(pl.agent, id)
		pl.seq = append(pl.seq, int32(i))
	}
	pl.fp = fp.sum()
	return pl
}

// write is one planned mutation through the v1 write API.
type write struct {
	path, body string
	mut        wal.Mutation
}

func (w write) request() *http.Request { return newPOST(w.path, w.body) }

// writeAt is the i-th write of the seed's write stream: 70 % rating
// upserts, 30 % trust upserts, source agent by Zipf rank, value in
// [0.2, 1] at three decimals so it survives JSON unchanged.
func (p *population) writeAt(seed int64, i uint64) write {
	agent := p.agents[p.writeAgent.Pick(i)]
	v := math.Round((0.2+0.8*datagen.Uniform01(streamSeed(seed, strWriteValue), i))*1000) / 1000
	val := strconv.FormatFloat(v, 'g', -1, 64)
	if datagen.Uniform01(streamSeed(seed, strWriteKind), i) < 0.7 {
		product := p.products[p.writeProduct.Pick(i)]
		return write{
			path: agentPath(agent, "/ratings"),
			body: `{"product":` + strconv.Quote(string(product)) + `,"value":` + val + `}`,
			mut:  wal.Mutation{Op: wal.OpUpsertRating, Agent: agent, Product: product, Value: v},
		}
	}
	r := p.writePeer.Pick(i)
	if p.agents[r] == agent { // no self-trust: take the next rank
		r = (r + 1) % len(p.agents)
	}
	peer := p.agents[r]
	return write{
		path: agentPath(agent, "/trust"),
		body: `{"peer":` + strconv.Quote(string(peer)) + `,"value":` + val + `}`,
		mut:  wal.Mutation{Op: wal.OpUpsertTrust, Agent: agent, Peer: peer, Value: v},
	}
}

// hotAgentAt is the i-th draw of the Zipf-hot read stream.
func (p *population) hotAgentAt(i uint64) model.AgentID {
	return p.agents[p.hotAgent.Pick(i)]
}

// Cycle shapes of the two writing workloads.
const (
	churnWrites   = 32 // writes per churn cycle, then one Flush
	churnHotReads = 32 // Zipf-hot reads after the reads of the written agents
	churnFPCycles = 64 // cycles the churn fingerprint covers

	restartWrites        = 128 // writes before the checkpoint, and again after it (the replayed tail)
	restartCheckpoints   = 2   // checkpoints per run, each recovered from for half of the seconds
	restartMinRecoveries = 4   // timed crash→recover rounds per checkpoint, however slow the run
	restartFPRecoveries  = 32  // first reads the restart fingerprint covers
)

// churnCycle is cycle c of the churn plan: its writes, and the agents
// read after the publish — the written ones, then the Zipf-hot ones.
func (p *population) churnCycle(seed int64, c int) (writes []write, reads []model.AgentID) {
	for k := 0; k < churnWrites; k++ {
		w := p.writeAt(seed, uint64(c*churnWrites+k))
		writes = append(writes, w)
		reads = append(reads, w.mut.Agent)
	}
	for k := 0; k < churnHotReads; k++ {
		reads = append(reads, p.hotAgentAt(uint64(c*churnHotReads+k)))
	}
	return writes, reads
}

// restartCycle is cycle c of the restart plan: the writes the
// checkpoint covers and the writes that become the replayed tail. The
// first read after the n-th recovery of a run is for hotAgentAt(n).
func (p *population) restartCycle(seed int64, c int) (covered, tail []write) {
	base := uint64(c * 2 * restartWrites)
	for k := uint64(0); k < restartWrites; k++ {
		covered = append(covered, p.writeAt(seed, base+k))
		tail = append(tail, p.writeAt(seed, base+restartWrites+k))
	}
	return covered, tail
}

// fingerprintCycle hashes what a cycle issues; shared by the two
// cycle-generated plans, whose fingerprints cover a fixed leading part
// of the plan however far a run gets through it.
func fingerprintCycle(fp fingerprinter, writes []write, reads []model.AgentID) {
	for _, w := range writes {
		fp.op(http.MethodPost, w.path, w.body)
	}
	for _, id := range reads {
		fp.op(http.MethodGet, readPath(epRecommendations, id, ""), "")
	}
}

func (p *population) churnFingerprint(seed int64) string {
	fp := newFingerprinter()
	for c := 0; c < churnFPCycles; c++ {
		writes, reads := p.churnCycle(seed, c)
		fingerprintCycle(fp, writes, reads)
	}
	return fp.sum()
}

func (p *population) restartFingerprint(seed int64) string {
	fp := newFingerprinter()
	for c := 0; c < restartCheckpoints; c++ {
		covered, tail := p.restartCycle(seed, c)
		fingerprintCycle(fp, append(covered, tail...), nil)
	}
	var first []model.AgentID
	for n := uint64(0); n < restartFPRecoveries; n++ {
		first = append(first, p.hotAgentAt(n))
	}
	fingerprintCycle(fp, nil, first)
	return fp.sum()
}
