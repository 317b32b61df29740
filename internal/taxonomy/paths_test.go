package taxonomy_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"swrec/internal/datagen"
	"swrec/internal/taxonomy"
)

// perTopicTables is the oracle for PathTable: each topic's path and Eq. 3
// coefficients derived on their own from PrimaryPath and Siblings, the
// way the profile generator derived them before the taxonomy owned the
// table.
func perTopicTables(tax *taxonomy.Taxonomy) (paths [][]taxonomy.Topic, coeffs [][]float64) {
	for d := 0; d < tax.Len(); d++ {
		path := tax.PrimaryPath(taxonomy.Topic(d))
		scratch := make([]float64, len(path))
		scratch[len(path)-1] = 1
		total, factor := 1.0, 1.0
		for i := len(path) - 1; i > 0; i-- {
			factor /= float64(tax.Siblings(path[i]) + 1)
			scratch[i-1] = factor
			total += factor
		}
		coeff := make([]float64, len(path))
		for i, f := range scratch {
			coeff[i] = f / total
		}
		paths = append(paths, path)
		coeffs = append(coeffs, coeff)
	}
	return paths, coeffs
}

// randomDAG is a seeded random tree with secondary parents added by
// AddEdge, which must leave every primary path and coefficient alone.
func randomDAG(seed int64, n int) *taxonomy.Taxonomy {
	rng := rand.New(rand.NewSource(seed))
	tax := taxonomy.New("Root")
	for i := 0; i < n; i++ {
		tax.MustAdd(taxonomy.Topic(rng.Intn(tax.Len())), fmt.Sprintf("t%d", i))
	}
	for i := 0; i < n/4; i++ {
		// A cycle is refused; the refusal is part of what is being mixed in.
		_ = tax.AddEdge(taxonomy.Topic(rng.Intn(tax.Len())), taxonomy.Topic(1+rng.Intn(tax.Len()-1)))
	}
	return tax
}

// TestPathTableMatchesPerTopicDerivation: the one-pass table equals the
// per-topic derivation with ==, node for node — on Figure 1's fragment,
// the paper-scale book tree (167,481 path nodes) and seeded random trees
// with secondary parents.
func TestPathTableMatchesPerTopicDerivation(t *testing.T) {
	trees := map[string]*taxonomy.Taxonomy{
		"fig1":  taxonomy.Fig1(),
		"paper": datagen.GenerateTaxonomy(datagen.PaperScale().Taxonomy, rand.New(rand.NewSource(1))),
	}
	for seed := int64(1); seed <= 5; seed++ {
		trees[fmt.Sprintf("dag%d", seed)] = randomDAG(seed, 400)
	}
	for name, tax := range trees {
		t.Run(name, func(t *testing.T) {
			pt := tax.PathTable()
			paths, coeffs := perTopicTables(tax)
			nodes := 0
			for d := range paths {
				path, coeff := pt.At(taxonomy.Topic(d))
				if len(path) != len(paths[d]) || len(coeff) != len(path) {
					t.Fatalf("topic %d: path of %d nodes (%d coefficients), want %d", d, len(path), len(coeff), len(paths[d]))
				}
				for i := range path {
					if path[i] != paths[d][i] || coeff[i] != coeffs[d][i] {
						t.Fatalf("topic %d node %d: (%d, %v), want (%d, %v)", d, i, path[i], coeff[i], paths[d][i], coeffs[d][i])
					}
				}
				nodes += len(path)
			}
			if name == "paper" && nodes != 167481 {
				t.Fatalf("paper-scale tree has %d path nodes, want 167481", nodes)
			}
		})
	}
}

// TestPathTableRederivesAfterAdd: a table is memoized per version, so
// asking twice builds once, and a topic added after first use gets a path
// — and its new siblings' coefficients change — on the next ask.
func TestPathTableRederivesAfterAdd(t *testing.T) {
	tax := taxonomy.Fig1()
	first := tax.PathTable()
	if tax.PathTable() != first {
		t.Fatal("an unchanged taxonomy rebuilt its table")
	}
	pure, _ := tax.Lookup("Books/Science/Mathematics/Pure")
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	_, before := first.At(alg)
	logic := tax.MustAdd(pure, "Logic")
	next := tax.PathTable()
	if next == first {
		t.Fatal("Add left the table it invalidated in place")
	}
	if path, _ := next.At(logic); len(path) != 5 || path[3] != pure || path[4] != logic {
		t.Fatalf("new topic's path %v", path)
	}
	if _, after := next.At(alg); after[len(after)-1] == before[len(before)-1] {
		t.Fatal("a new sibling left Algebra's coefficients unchanged")
	}
	paths, coeffs := perTopicTables(tax)
	for d := range paths {
		path, coeff := next.At(taxonomy.Topic(d))
		for i := range path {
			if path[i] != paths[d][i] || coeff[i] != coeffs[d][i] {
				t.Fatalf("topic %d node %d differs from the per-topic derivation after Add", d, i)
			}
		}
	}
}

// TestPathTableConcurrentFirstUse: goroutines racing to the first ask all
// get the one table (run under -race).
func TestPathTableConcurrentFirstUse(t *testing.T) {
	tax := randomDAG(9, 2000)
	got := make([]*taxonomy.PathTable, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tax.PathTable()
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a second table", i)
		}
	}
}
