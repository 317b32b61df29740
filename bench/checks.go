package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"swrec/internal/core"
	"swrec/internal/model"
	"swrec/internal/strategy"
	"swrec/internal/wal"
)

// recsBody is the slice of a /recommendations response the checks read.
type recsBody struct {
	Items []struct {
		Product model.ProductID
		Score   float64
	} `json:"items"`
	Strategy struct {
		Procedure strategy.Procedure `json:"procedure"`
	} `json:"strategy"`
}

// probeAnswers fetches /recommendations for every probe agent. The
// fingerprint is SHA-256 over agent, answering procedure, and the item
// IDs with their scores — everything but the epoch, which a publish or
// a recovery legitimately moves.
func (r *run) probeAnswers(c *client, pop *population) (fingerprint string, answers []recsBody) {
	h := sha256.New()
	for _, id := range pop.probe {
		_, status, body := c.fetch(newGET(readPath(epRecommendations, id, "")))
		r.count(status, http.StatusOK)
		var ans recsBody
		if err := json.Unmarshal(body, &ans); err != nil {
			r.fail("probe %s: undecodable response: %v", id, err)
		}
		fmt.Fprintf(h, "%s|%s", id, ans.Strategy.Procedure)
		for _, it := range ans.Items {
			fmt.Fprintf(h, "|%s:%s", it.Product, strconv.FormatFloat(it.Score, 'g', 12, 64))
		}
		fmt.Fprintln(h)
		answers = append(answers, ans)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), answers
}

// checkOracle is correctness check (a): what the engine serves through
// the API for the probe agents equals what the naive pipeline
// (core.New(...).RecommendCtx on the same community, no caches, no
// ladder) computes. Agents the ladder answered from a lower rung have
// no oracle counterpart and are skipped; most of the set must compare.
func (r *run) checkOracle(w *world, c *client, pop *population) string {
	fp, answers := r.probeAnswers(c, pop)
	oracle, err := core.New(w.community(), engineOptions())
	if err != nil {
		r.fail("oracle: %v", err)
		return fp
	}
	compared := 0
	for i, id := range pop.probe {
		if answers[i].Strategy.Procedure != strategy.FullSynthesis {
			continue
		}
		want, err := oracle.RecommendCtx(context.Background(), id, topN)
		if err != nil {
			r.fail("oracle %s: %v", id, err)
			continue
		}
		got := answers[i].Items
		same := len(got) == len(want)
		for j := 0; same && j < len(want); j++ {
			same = got[j].Product == want[j].Product
		}
		if !same {
			r.fail("probe %s: engine and oracle disagree (%d vs %d items)", id, len(got), len(want))
		}
		compared++
	}
	if compared < probeAgents/2 {
		r.fail("oracle compared only %d of %d probe agents", compared, probeAgents)
	}
	r.note("check", "oracle: %d of %d probe agents on full-synthesis, all equal to core.RecommendCtx; probe sha256=%s",
		compared, probeAgents, fp)
	return fp
}

// agentBody is the slice of GET /v1/agents/{id} the churn check reads.
type agentBody struct {
	Trust   []model.TrustStatement  `json:"trust"`
	Ratings []model.RatingStatement `json:"ratingStatements"`
}

// checkVisible is correctness check (b): after a Flush the written
// statement is what GET /v1/agents/{id} shows, and the pipeline has
// applied exactly up to the last acknowledged sequence number.
func (r *run) checkVisible(w *world, c *client, last write, ackedSeq uint64) {
	_, status, body := c.fetch(newGET(agentPath(last.mut.Agent, "")))
	r.count(status, http.StatusOK)
	var got agentBody
	if err := json.Unmarshal(body, &got); err != nil {
		r.fail("agent %s: undecodable response: %v", last.mut.Agent, err)
		return
	}
	m := last.mut
	var seen bool
	if m.Op == wal.OpUpsertTrust {
		seen = slices.ContainsFunc(got.Trust, func(t model.TrustStatement) bool { return t.Dst == m.Peer && t.Value == m.Value })
	} else {
		seen = slices.ContainsFunc(got.Ratings, func(t model.RatingStatement) bool { return t.Product == m.Product && t.Value == m.Value })
	}
	if !seen {
		r.fail("write %s %s not visible after Flush", m.Op, m.Agent)
	}
	if _, applied := w.pipe.Applied(); applied != ackedSeq {
		r.fail("pipeline applied seq %d, last acknowledged %d", applied, ackedSeq)
	}
}

// ackSeq decodes the 202 envelope of a write.
func ackSeq(body []byte) (uint64, error) {
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	err := json.Unmarshal(body, &ack)
	return ack.Seq, err
}
