package loadgen

import (
	"fmt"
	"hash/fnv"
	"time"

	"swrec/internal/datagen"
)

// Event is one planned request. Agent/Peer encode honest agents as
// their community index (≥ 0) and churn joiners as -(ordinal+2), so
// the plan stays a pure index structure the resolver can map onto any
// identically-seeded community.
type Event struct {
	Idx      int
	At       time.Duration // virtual arrival offset (open pacing)
	Endpoint string
	Agent    int // subject (reads) or write source; -1 when unused
	Peer     int // trust edge target; -1 when unused
	Product  int // product index; -1 when unused
	Topic    int // raw topic draw, resolver mods by taxonomy size; -1 unused
	Offset   int // list offset (agents endpoint)
	N        int // page/topK parameter
	Value    float64
}

// joinerOrdinal returns the joiner ordinal encoded in an agent ref, or
// -1 for honest/unused refs. -1 itself is the "unused" sentinel, so
// joiner ordinals start at encoding -2.
func joinerOrdinal(ref int) int {
	if ref <= -2 {
		return -ref - 2
	}
	return -1
}

func encodeJoiner(ordinal int) int { return -(ordinal + 2) }

// Plan-internal draw streams. Each decision channel hashes a distinct
// derived seed so adding a stream never shifts another stream's draws.
const (
	strClass = iota + 1
	strReadMix
	strWriteMix
	strAgent
	strWriteAgent
	strPeer
	strProduct
	strTopic
	strOffset
	strValue
	strJoinerPref
	strHot
)

func streamSeed(seed int64, stream int64) int64 {
	const stride = int64(-7046029254386353131) // golden-ratio stride (0x9E3779B97F4A7C15); wraps
	return seed + stream*stride
}

func u01(seed int64, stream int64, i int) float64 {
	return datagen.Uniform01(streamSeed(seed, stream), uint64(i))
}

// pendingWrite is a churn follow-up a join event schedules.
type pendingWrite struct {
	joiner  int // ordinal
	trust   bool
	peer    int
	product int
	value   float64
}

// issuedStmt is a retractable statement a later leave event deletes.
type issuedStmt struct {
	agent   int // encoded ref
	trust   bool
	peer    int
	product int
}

// Plan expands the scenario into its deterministic event sequence.
// The plan depends only on (scenario, seed): no clock, no global rand,
// no map-order leakage — the same scenario file always yields the same
// fingerprint, which Run embeds in the report so two BENCH_load.json
// artifacts are comparable only when they ran the same traffic.
func Plan(sc *Scenario) []Event {
	w := sc.Workload
	agents := sc.DatagenConfig().Agents
	products := sc.DatagenConfig().Products
	seed := sc.Seed

	readMix := newMixTable(w.ReadMix)
	writeMix := newMixTable(w.WriteMix)
	zAgent := datagen.NewZipf(streamSeed(seed, strAgent), w.ZipfS, agents)
	zWriter := datagen.NewZipf(streamSeed(seed, strWriteAgent), w.ZipfS, agents)
	zPeer := datagen.NewZipf(streamSeed(seed, strPeer), w.ZipfS, agents)
	zProduct := datagen.NewZipf(streamSeed(seed, strProduct), sc.Community.PopularitySkew, products)

	var interval time.Duration
	if w.Pacing == "open" {
		interval = time.Duration(float64(time.Second) / w.Rate)
	}

	flashAt := func(i int) *Flash {
		frac := float64(i) / float64(w.Events)
		for fi := range w.Flash {
			if frac >= w.Flash[fi].StartFrac && frac < w.Flash[fi].EndFrac {
				return &w.Flash[fi]
			}
		}
		return nil
	}

	events := make([]Event, 0, w.Events)
	var at time.Duration
	var joinCount int
	var pending []pendingWrite
	var issued []issuedStmt

	for i := 0; i < w.Events; i++ {
		ev := Event{Idx: i, Agent: -1, Peer: -1, Product: -1, Topic: -1, N: sc.TopK}
		fl := flashAt(i)
		if interval > 0 {
			step := interval
			if fl != nil && fl.Multiplier > 1 {
				step = time.Duration(float64(step) / fl.Multiplier)
			}
			at += step
			ev.At = at
		}

		if u01(seed, strClass, i) < w.ReadFraction {
			ev.Endpoint = readMix.pick(u01(seed, strReadMix, i))
			switch ev.Endpoint {
			case EpRecommendations, EpNeighbors, EpProfile, EpAgent:
				if fl != nil && fl.HotAgents > 0 {
					ev.Agent = int(u01(seed, strHot, i) * float64(fl.HotAgents))
					if ev.Agent >= agents {
						ev.Agent = agents - 1
					}
				} else {
					ev.Agent = zAgent.Pick(uint64(i))
				}
			case EpAgents:
				ev.Offset = int(u01(seed, strOffset, i) * float64(agents))
				ev.N = 25
			case EpProduct:
				ev.Product = zProduct.Pick(uint64(i))
			case EpTopic:
				ev.Topic = int(u01(seed, strTopic, i) * (1 << 20))
			case EpStats:
				// no parameters
			}
			events = append(events, ev)
			continue
		}

		// Write slot. Churn follow-ups from joined agents take priority
		// about half the time so joins are followed by their activity
		// while honest write traffic keeps flowing.
		if len(pending) > 0 && u01(seed, strJoinerPref, i) < 0.5 {
			p := pending[0]
			pending = pending[1:]
			ev.Agent = encodeJoiner(p.joiner)
			ev.Value = p.value
			if p.trust {
				ev.Endpoint = EpWriteTrust
				ev.Peer = p.peer
			} else {
				ev.Endpoint = EpWriteRating
				ev.Product = p.product
			}
			issued = append(issued, issuedStmt{agent: ev.Agent, trust: p.trust, peer: p.peer, product: p.product})
			events = append(events, ev)
			continue
		}

		ep := writeMix.pick(u01(seed, strWriteMix, i))
		if ep == EpWriteLeave && len(issued) == 0 {
			ep = EpWriteTrust // nothing to retract yet
		}
		switch ep {
		case EpWriteJoin:
			j := joinCount
			joinCount++
			ev.Endpoint = EpWriteJoin
			ev.Agent = encodeJoiner(j)
			for k := 0; k < w.Churn.TrustPerJoin; k++ {
				pending = append(pending, pendingWrite{
					joiner: j, trust: true,
					peer:  zPeer.Pick(uint64(i)*16 + uint64(k)),
					value: 0.4 + float64(0.6*u01(seed, strValue, i*16+k)),
				})
			}
			for k := 0; k < w.Churn.RatingsPerJoin; k++ {
				pending = append(pending, pendingWrite{
					joiner:  j,
					product: zProduct.Pick(uint64(i)*16 + 8 + uint64(k)),
					value:   0.2 + float64(0.8*u01(seed, strValue, i*16+8+k)),
				})
			}
		case EpWriteLeave:
			st := issued[0]
			issued = issued[1:]
			ev.Endpoint = EpWriteLeave
			ev.Agent = st.agent
			if st.trust {
				ev.Peer = st.peer
			} else {
				ev.Product = st.product
			}
		case EpWriteRating:
			ev.Endpoint = EpWriteRating
			ev.Agent = zWriter.Pick(uint64(i))
			ev.Product = zProduct.Pick(uint64(i))
			ev.Value = 0.2 + float64(0.8*u01(seed, strValue, i))
		default: // EpWriteTrust, and the empty-mix fallback
			ev.Endpoint = EpWriteTrust
			ev.Agent = zWriter.Pick(uint64(i))
			ev.Peer = zPeer.Pick(uint64(i))
			if ev.Peer == ev.Agent { // self-trust is invalid by model rule
				ev.Peer = (ev.Peer + 1) % agents
			}
			ev.Value = 0.4 + float64(0.6*u01(seed, strValue, i))
		}
		events = append(events, ev)
	}
	return events
}

// Fingerprint hashes the full event sequence. Two runs are comparable
// iff their fingerprints match; the determinism regression test pins
// one for the short preset.
func Fingerprint(events []Event) string {
	h := fnv.New64a()
	for _, ev := range events {
		fmt.Fprintf(h, "%d|%d|%s|%d|%d|%d|%d|%d|%d|%.6f\n",
			ev.Idx, ev.At.Nanoseconds(), ev.Endpoint, ev.Agent, ev.Peer,
			ev.Product, ev.Topic, ev.Offset, ev.N, ev.Value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
