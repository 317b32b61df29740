package taxonomy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHasOnlyRoot(t *testing.T) {
	tax := New("Books")
	if got := tax.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1", got)
	}
	if name := tax.Name(Root); name != "Books" {
		t.Fatalf("Name(Root) = %q, want Books", name)
	}
	if !tax.IsLeaf(Root) {
		t.Fatal("fresh root should be a leaf")
	}
	if p := tax.Parent(Root); p != None {
		t.Fatalf("Parent(Root) = %d, want None", p)
	}
	if got := tax.Depth(Root); got != 0 {
		t.Fatalf("Depth(Root) = %d, want 0", got)
	}
}

func TestAddAndLookup(t *testing.T) {
	tax := New("Books")
	sci, err := tax.Add(Root, "Science")
	if err != nil {
		t.Fatal(err)
	}
	math := tax.MustAdd(sci, "Mathematics")

	if got, ok := tax.Lookup("Books/Science/Mathematics"); !ok || got != math {
		t.Fatalf("Lookup = %d,%v, want %d,true", got, ok, math)
	}
	if got := tax.QualifiedName(math); got != "Books/Science/Mathematics" {
		t.Fatalf("QualifiedName = %q", got)
	}
	if tax.IsLeaf(sci) {
		t.Fatal("Science has a child, must not be leaf")
	}
	if !tax.IsLeaf(math) {
		t.Fatal("Mathematics should be a leaf")
	}
	if got := tax.Parent(math); got != sci {
		t.Fatalf("Parent = %d, want %d", got, sci)
	}
}

func TestAddRejectsBadNames(t *testing.T) {
	tax := New("Books")
	if _, err := tax.Add(Root, ""); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := tax.Add(Root, "a/b"); err == nil {
		t.Fatal("name with slash accepted")
	}
	if _, err := tax.Add(9999, "x"); err == nil {
		t.Fatal("unknown parent accepted")
	}
	tax.MustAdd(Root, "Science")
	if _, err := tax.Add(Root, "Science"); err == nil {
		t.Fatal("duplicate sibling name accepted")
	}
}

func TestAddPath(t *testing.T) {
	tax := New("Books")
	alg, err := tax.AddPath("Science/Mathematics/Pure/Algebra")
	if err != nil {
		t.Fatal(err)
	}
	if got := tax.QualifiedName(alg); got != "Books/Science/Mathematics/Pure/Algebra" {
		t.Fatalf("QualifiedName = %q", got)
	}
	// Idempotent: re-adding returns the same handle, creates nothing.
	n := tax.Len()
	again, err := tax.AddPath("Science/Mathematics/Pure/Algebra")
	if err != nil || again != alg {
		t.Fatalf("AddPath again = %d,%v, want %d,nil", again, err, alg)
	}
	if tax.Len() != n {
		t.Fatalf("re-adding grew taxonomy: %d -> %d", n, tax.Len())
	}
	// Shares prefixes.
	calc, err := tax.AddPath("Science/Mathematics/Pure/Calculus")
	if err != nil {
		t.Fatal(err)
	}
	if tax.Parent(calc) != tax.Parent(alg) {
		t.Fatal("siblings should share a parent")
	}
	if _, err := tax.AddPath("Science//X"); err == nil {
		t.Fatal("empty segment accepted")
	}
}

func TestSiblingsAndPath(t *testing.T) {
	tax := Fig1()
	alg, ok := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	if !ok {
		t.Fatal("Algebra missing from Fig1")
	}
	// Example 1 implies these sibling counts exactly.
	wantSib := map[string]int{
		"Books/Science/Mathematics/Pure/Algebra": 1,
		"Books/Science/Mathematics/Pure":         2,
		"Books/Science/Mathematics":              3,
		"Books/Science":                          3,
		"Books":                                  0,
	}
	for q, want := range wantSib {
		d, ok := tax.Lookup(q)
		if !ok {
			t.Fatalf("missing topic %s", q)
		}
		if got := tax.Siblings(d); got != want {
			t.Errorf("Siblings(%s) = %d, want %d", q, got, want)
		}
	}
	path := tax.PrimaryPath(alg)
	var names []string
	for _, p := range path {
		names = append(names, tax.Name(p))
	}
	if got := strings.Join(names, ","); got != "Books,Science,Mathematics,Pure,Algebra" {
		t.Fatalf("PrimaryPath = %s", got)
	}
	if got := tax.Depth(alg); got != 4 {
		t.Fatalf("Depth(Algebra) = %d, want 4", got)
	}
}

func TestMultipleParentsAndAncestors(t *testing.T) {
	tax := New("Books")
	sci := tax.MustAdd(Root, "Science")
	comp := tax.MustAdd(Root, "Computers")
	ml := tax.MustAdd(sci, "MachineLearning")
	if err := tax.AddEdge(comp, ml); err != nil {
		t.Fatal(err)
	}
	// Primary path still goes through Science.
	if got := tax.Parent(ml); got != sci {
		t.Fatalf("primary parent = %d, want %d", got, sci)
	}
	anc := tax.Ancestors(ml)
	want := map[Topic]bool{Root: true, sci: true, comp: true}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors = %v, want 3 topics", anc)
	}
	for _, a := range anc {
		if !want[a] {
			t.Fatalf("unexpected ancestor %d", a)
		}
	}
	// Idempotent edge add.
	if err := tax.AddEdge(comp, ml); err != nil {
		t.Fatal(err)
	}
	if got := len(tax.Parents(ml)); got != 2 {
		t.Fatalf("Parents = %d, want 2", got)
	}
}

func TestAddEdgeRejectsCycles(t *testing.T) {
	tax := New("Books")
	a := tax.MustAdd(Root, "A")
	b := tax.MustAdd(a, "B")
	if err := tax.AddEdge(b, a); err == nil {
		t.Fatal("cycle accepted")
	}
	if err := tax.AddEdge(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := tax.AddEdge(a, Root); err == nil {
		t.Fatal("parent for root accepted")
	}
}

func TestLCA(t *testing.T) {
	tax := Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	app, _ := tax.Lookup("Books/Science/Mathematics/Applied")
	fic, _ := tax.Lookup("Books/Fiction")
	pure, _ := tax.Lookup("Books/Science/Mathematics/Pure")
	math, _ := tax.Lookup("Books/Science/Mathematics")

	cases := []struct {
		a, b, want Topic
	}{
		{alg, calc, pure},
		{alg, app, math},
		{alg, fic, Root},
		{alg, alg, alg},
		{alg, pure, pure},
	}
	for _, c := range cases {
		if got := tax.LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%s, %s) = %s, want %s",
				tax.Name(c.a), tax.Name(c.b), tax.Name(got), tax.Name(c.want))
		}
	}
}

func TestWuPalmer(t *testing.T) {
	tax := Fig1()
	alg, _ := tax.Lookup("Books/Science/Mathematics/Pure/Algebra")
	calc, _ := tax.Lookup("Books/Science/Mathematics/Pure/Calculus")
	app, _ := tax.Lookup("Books/Science/Mathematics/Applied")
	fic, _ := tax.Lookup("Books/Fiction")

	if got := tax.WuPalmer(alg, alg); got != 1 {
		t.Fatalf("self similarity = %v, want 1", got)
	}
	// Siblings at depth 4 share the depth-3 parent: 2·3/(4+4) = 0.75.
	if got := tax.WuPalmer(alg, calc); got != 0.75 {
		t.Fatalf("sibling similarity = %v, want 0.75", got)
	}
	// Algebra vs Applied share Mathematics (depth 2): 2·2/(4+3) ≈ 0.571.
	if got := tax.WuPalmer(alg, app); got < 0.57 || got > 0.58 {
		t.Fatalf("cousin similarity = %v, want ≈0.571", got)
	}
	// Only the root in common → 0.
	if got := tax.WuPalmer(alg, fic); got != 0 {
		t.Fatalf("cross-branch similarity = %v, want 0", got)
	}
	// Symmetry and bounds on random pairs.
	for _, a := range tax.Topics() {
		for _, b := range tax.Topics() {
			s := tax.WuPalmer(a, b)
			if s < 0 || s > 1 || s != tax.WuPalmer(b, a) {
				t.Fatalf("WuPalmer(%v,%v) = %v violates bounds/symmetry", a, b, s)
			}
		}
	}
	if got := tax.WuPalmer(Root, Root); got != 1 {
		t.Fatalf("root self similarity = %v", got)
	}
	if got := tax.WuPalmer(None, alg); got != 0 {
		t.Fatalf("invalid topic similarity = %v", got)
	}
}

func TestWalkVisitsAllOnce(t *testing.T) {
	tax := Fig1()
	seen := map[Topic]int{}
	tax.Walk(func(d Topic, depth int) bool {
		seen[d]++
		if got := tax.Depth(d); got != depth {
			t.Errorf("Walk depth %d != Depth() %d for %s", depth, got, tax.Name(d))
		}
		return true
	})
	if len(seen) != tax.Len() {
		t.Fatalf("Walk visited %d topics, want %d", len(seen), tax.Len())
	}
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("topic %s visited %d times", tax.Name(d), n)
		}
	}
	// Early stop.
	count := 0
	tax.Walk(func(Topic, int) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestStatsFig1(t *testing.T) {
	s := Fig1().ComputeStats()
	if s.Topics != 14 {
		t.Errorf("Topics = %d, want 14", s.Topics)
	}
	if s.MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", s.MaxDepth)
	}
	if s.Leaves+s.InnerTopics != s.Topics {
		t.Errorf("leaves %d + inner %d != topics %d", s.Leaves, s.InnerTopics, s.Topics)
	}
}

func TestLeavesAndTopics(t *testing.T) {
	tax := Fig1()
	if got := len(tax.Topics()); got != tax.Len() {
		t.Fatalf("Topics() = %d, want %d", got, tax.Len())
	}
	for _, l := range tax.Leaves() {
		if !tax.IsLeaf(l) {
			t.Fatalf("Leaves() returned non-leaf %s", tax.Name(l))
		}
	}
}

// buildRandom constructs a random tree-shaped taxonomy from a seed.
func buildRandom(seed int64, n int) *Taxonomy {
	rng := rand.New(rand.NewSource(seed))
	tax := New("Root")
	for i := 0; i < n; i++ {
		parent := Topic(rng.Intn(tax.Len()))
		tax.MustAdd(parent, "t"+string(rune('a'+i%26))+itoa(i))
	}
	return tax
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// Property: for every topic, the primary path starts at Root, ends at the
// topic, and successive entries are parent/child.
func TestPathPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		tax := buildRandom(seed, 120)
		for _, d := range tax.Topics() {
			p := tax.PrimaryPath(d)
			if p[0] != Root || p[len(p)-1] != d {
				return false
			}
			for i := 1; i < len(p); i++ {
				if tax.Parent(p[i]) != p[i-1] {
					return false
				}
			}
			if tax.Depth(d) != len(p)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Lookup(QualifiedName(d)) == d for all topics.
func TestLookupRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		tax := buildRandom(seed, 120)
		for _, d := range tax.Topics() {
			got, ok := tax.Lookup(tax.QualifiedName(d))
			if !ok || got != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendQualifiedName appends QualifiedName after whatever the
// buffer held, and nothing for a handle that is not live.
func TestAppendQualifiedNameMatchesQualifiedName(t *testing.T) {
	tax := buildRandom(7, 120)
	for _, d := range tax.Topics() {
		want := "x:" + tax.QualifiedName(d)
		if got := string(tax.AppendQualifiedName([]byte("x:"), d)); got != want {
			t.Fatalf("topic %d: %q, want %q", d, got, want)
		}
	}
	for _, d := range []Topic{None, Topic(tax.Len())} {
		if got := tax.AppendQualifiedName([]byte("x:"), d); string(got) != "x:" {
			t.Fatalf("invalid topic %d appended %q", d, got)
		}
	}
}

// Property: LCA is commutative and lies on both primary paths.
func TestLCAPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		tax := buildRandom(seed, 80)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 50; i++ {
			a := Topic(rng.Intn(tax.Len()))
			b := Topic(rng.Intn(tax.Len()))
			l := tax.LCA(a, b)
			if l != tax.LCA(b, a) {
				return false
			}
			onPath := func(x, of Topic) bool {
				for _, p := range tax.PrimaryPath(of) {
					if p == x {
						return true
					}
				}
				return false
			}
			if !onPath(l, a) || !onPath(l, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPathTableBuildAllocations: the table is built in a fixed number of
// presized allocations, whatever the number of topics.
func TestPathTableBuildAllocations(t *testing.T) {
	const ceiling = 5 // counts, offsets, two arenas, the table
	for _, n := range []int{100, 20000} {
		tax := buildRandom(int64(n), n)
		if allocs := testing.AllocsPerRun(3, func() { tax.buildPathTable() }); allocs > ceiling {
			t.Fatalf("%d topics: %.0f allocations per build, ceiling %d", n, allocs, ceiling)
		}
	}
}
