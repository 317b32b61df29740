package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"swrec/internal/model"
	"swrec/internal/profile"
	"swrec/internal/profmat"
	"swrec/internal/taxonomy"
)

// E1Result carries the Example 1 reproduction: computed topic scores
// against the paper's published values.
type E1Result struct {
	// Scores maps qualified topic names to computed sco values.
	Scores map[string]float64
	// MaxError is the largest absolute deviation from the published
	// numbers.
	MaxError float64
	// PathTotal is the sum over the Algebra path (must equal the
	// descriptor share, 50).
	PathTotal float64
}

// e1Published holds the paper's printed Example 1 values.
var e1Published = []struct {
	topic string
	value float64
}{
	{"Books/Science/Mathematics/Pure/Algebra", 29.087},
	{"Books/Science/Mathematics/Pure", 14.543},
	{"Books/Science/Mathematics", 4.848},
	{"Books/Science", 1.212},
	{"Books", 0.303},
}

// E1 reproduces Figure 1 + Example 1 (§3.3): the Fig. 1 taxonomy
// fragment, the 4-book / 5-descriptor setup with s = 1000, and the Eq. 3
// score propagation along the Algebra path.
func E1(w io.Writer, _ Params) (E1Result, error) {
	section(w, "E1", "Example 1 topic score assignment (Fig. 1 taxonomy)")
	tax := taxonomy.Fig1()
	alg, ok := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if !ok {
		return E1Result{}, fmt.Errorf("e1: Fig. 1 taxonomy lacks Algebra")
	}

	// Example 1: user mentioned 4 books; Matrix Analysis carries 5 topic
	// descriptors; s = 1000 → the Algebra descriptor's share is
	// 1000/(4·5) = 50.
	const books, descriptors, s = 4, 5, 1000.0
	share := s / (books * descriptors)
	fmt.Fprintf(w, "s = %v, 4 books, 5 descriptors -> descriptor share = %v\n", s, share)

	// A one-descriptor product's row is the Eq. 3 path at share 1; scaled
	// by the descriptor share, each entry is the share·coefficient the
	// loop assigns.
	g := profile.New(tax)
	out := profmat.NewGatherer(tax.Len(), 0)
	g.NewStreamer().ProductDense(&model.Product{Topics: []taxonomy.Topic{alg}}, out)
	path := out.Gather()

	res := E1Result{Scores: make(map[string]float64, len(e1Published))}
	t := newTable(w, "topic", "sco (computed)", "sco (paper)", "abs err")
	for _, p := range e1Published {
		d, ok := tax.Lookup(p.topic)
		if !ok {
			return E1Result{}, fmt.Errorf("e1: missing topic %s", p.topic)
		}
		var got float64
		if i, ok := slices.BinarySearch(path.Keys, int32(d)); ok {
			got = share * path.Vals[i]
		}
		res.Scores[p.topic] = got
		err := math.Abs(got - p.value)
		if err > res.MaxError {
			res.MaxError = err
		}
		t.row(p.topic, fmt.Sprintf("%.3f", got), fmt.Sprintf("%.3f", p.value), fmt.Sprintf("%.4f", err))
		res.PathTotal += got
	}
	t.flush()
	fmt.Fprintf(w, "path total = %.6f (descriptor share %.0f preserved)\n", res.PathTotal, share)
	fmt.Fprintf(w, "max |computed - paper| = %.4f (paper prints rounded values)\n", res.MaxError)

	// Also run the full end-to-end profile of Example 1's user as a
	// sanity check of the normalization to s.
	c := model.NewCommunity(tax)
	fic, _ := tax.Lookup("Books/Fiction")
	app, _ := tax.Lookup("Books/Science/Mathematics/Applied")
	phy, _ := tax.Lookup("Books/Science/Physics")
	ast, _ := tax.Lookup("Books/Science/Astronomy")
	nat, _ := tax.Lookup("Books/Science/Nature")
	c.AddProduct(model.Product{ID: "urn:isbn:9780521386326", Title: "Matrix Analysis",
		Topics: []taxonomy.Topic{alg, phy, ast, nat, fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780802713315", Title: "Fermat's Enigma",
		Topics: []taxonomy.Topic{app}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780553380958", Title: "Snow Crash",
		Topics: []taxonomy.Topic{fic}})
	c.AddProduct(model.Product{ID: "urn:isbn:9780441569595", Title: "Neuromancer",
		Topics: []taxonomy.Topic{fic}})
	for _, p := range c.Products() {
		if err := c.SetRating("ai", p, 1); err != nil {
			return E1Result{}, err
		}
	}
	prof, err := g.ProfileCtx(context.Background(), c.Agent("ai"), c)
	if err != nil {
		return E1Result{}, err
	}
	fmt.Fprintf(w, "full 4-book profile total = %.6f (normalized to s = 1000)\n", prof.Sum)
	return res, nil
}
