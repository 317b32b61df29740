package api

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"swrec/internal/cf"
	"swrec/internal/core"
	"swrec/internal/engine"
	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/sparse"
	"swrec/internal/strategy"
	"swrec/internal/taxonomy"
)

// eq3Vector is agent a's default Eq. 3 profile as a map, for the sparse
// package's TopK to order independently of the row's.
func eq3Vector(comm *model.Community, a *model.Agent) sparse.Vector {
	row, _ := profile.New(comm.Taxonomy()).ProfileCtx(context.Background(), a, comm)
	v := sparse.New(row.NNZ())
	for i, k := range row.Keys {
		v[k] = row.Vals[i]
	}
	return v
}

// wantProfileBody encodes what /profile?n= must answer for agent a: the
// top n of its Eq. 3 profile, ordered by sparse.Vector.TopK (value, then
// key), and its size.
func wantProfileBody(comm *model.Community, a *model.Agent, n int) []byte {
	prof := eq3Vector(comm, a)
	items := []topicScore{}
	for _, e := range prof.TopK(n) {
		items = append(items, topicScore{Topic: comm.Taxonomy().QualifiedName(taxonomy.Topic(e.Key)), Score: e.Value})
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, page{Items: items, Total: len(prof)})
	return rec.Body.Bytes()
}

// TestProfileMatchesEq3Reference pins /profile byte for byte to the
// Eq. 3 profile for every agent, ordered by the sparse package's TopK,
// while the handler reads the compiled matrix row: no n, 0 (= all), 1, the default 15, more than the
// profile holds — and a profile whose two best topics tie on value, where
// n=1 must cut between them by key.
func TestProfileMatchesEq3Reference(t *testing.T) {
	s, comm, _ := newTestServer(t)
	check := func(s *Server, comm *model.Community, id model.AgentID) {
		t.Helper()
		a := comm.Agent(id)
		for _, n := range []int{-1, 0, 1, 15, 1 << 20} {
			path, want := agentPath(id, "/profile"), wantProfileBody(comm, a, 15)
			if n >= 0 {
				path, want = fmt.Sprintf("%s?n=%d", path, n), wantProfileBody(comm, a, n)
			}
			rec := serve(s, http.MethodGet, path)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s = %d\n%s\nwant\n%s", path, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
	for _, id := range comm.Agents() {
		check(s, comm, id)
	}

	tax := taxonomy.Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	tied := model.NewCommunity(tax)
	tied.AddProduct(model.Product{ID: "urn:calc", Topics: []taxonomy.Topic{calc}})
	tied.AddProduct(model.Product{ID: "urn:alg", Topics: []taxonomy.Topic{alg}})
	for _, p := range tied.Products() {
		if err := tied.SetRating("http://x/twin", p, 1); err != nil {
			t.Fatal(err)
		}
	}
	tied.AddAgent("http://x/silent")
	prof := eq3Vector(tied, tied.Agent("http://x/twin"))
	if top := prof.TopK(2); top[0].Value != top[1].Value {
		t.Fatalf("fixture does not tie its two best topics: %+v", top)
	}
	eng, err := engine.New(tied, core.Options{CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy}}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	check(New(eng), tied, "http://x/twin")
	check(New(eng), tied, "http://x/silent") // nothing rated: an empty list, total 0
}

// TestAncestorRungIsDeterministic: the taxonomy-ancestor rung's
// similarities are key-ordered sums over compiled rows, so the same
// pinned request answers with the same bytes on every fresh engine — and
// therefore a response-cache hit cannot differ from a fresh answer. (The
// rung used to sum map-backed vectors in map-iteration order; near-tied
// peers could trade places between two identical requests.)
func TestAncestorRungIsDeterministic(t *testing.T) {
	comm := testCommunity(t, 150, 120)
	targets := []string{
		agentPath(comm.Agents()[3], "/neighbors") + "?n=0&strategy=" + string(strategy.TaxonomyAncestor),
		agentPath(comm.Agents()[3], "/neighbors") + "?n=0&measure=pearson&strategy=" + string(strategy.TaxonomyAncestor),
		agentPath(comm.Agents()[77], "/recommendations") + "?n=20&strategy=" + string(strategy.TaxonomyAncestor),
	}
	var first [][]byte
	for run := 0; run < 20; run++ {
		eng, err := engine.New(comm, core.Options{
			CF: cf.Options{Measure: cf.Cosine, Representation: cf.Taxonomy},
		}, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(eng)
		for i, target := range targets {
			rec := serve(s, http.MethodGet, target)
			if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"procedure": "taxonomy-ancestor"`)) {
				t.Fatalf("%s = %d\n%s", target, rec.Code, rec.Body.Bytes())
			}
			if run == 0 {
				first = append(first, bytes.Clone(rec.Body.Bytes()))
			} else if !bytes.Equal(rec.Body.Bytes(), first[i]) {
				t.Fatalf("run %d: %s answered differently from run 0", run, target)
			}
		}
	}
}
