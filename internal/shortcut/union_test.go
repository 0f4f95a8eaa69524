package shortcut

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

func pathWithTree(t *testing.T, n int) (*graph.Graph, *graph.Tree, *partition.Parts) {
	t.Helper()
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]int{make([]int, n)}
	for i := range sets[0] {
		sets[0][i] = i
	}
	p, err := partition.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr, p
}

// Regression: Union only compared part counts, so two shortcuts over
// different graphs (or trees) with coincidentally equal part counts merged
// without complaint, mixing unrelated edge ID spaces.
func TestUnionRejectsMismatchedGraphAndTree(t *testing.T) {
	g1, t1, p1 := pathWithTree(t, 6)
	g2, t2, _ := pathWithTree(t, 6)

	s1, err := New(g1, t1, p1, [][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(g2, t2, mustParts(t, g2), [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Union(s2); err == nil {
		t.Fatal("union across different graphs must be rejected")
	}
	// Same graph, different tree.
	t1b, err := graph.BFSTree(g1, 5)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := New(g1, t1b, p1, [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Union(s3); err == nil {
		t.Fatal("union across different trees must be rejected")
	}
	// Same graph and tree, different Parts object (equal part count).
	s4, err := New(g1, t1, mustParts(t, g1), [][]int{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Union(s4); err == nil {
		t.Fatal("union across different part families must be rejected")
	}
}

func mustParts(t *testing.T, g *graph.Graph) *partition.Parts {
	t.Helper()
	sets := [][]int{make([]int, g.N())}
	for i := range sets[0] {
		sets[0][i] = i
	}
	p, err := partition.New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Regression: mergeSorted's empty-b early return handed back a itself, so
// the caller's "fresh merged slice" aliased the input and a later in-place
// mutation of one shortcut's edge list corrupted the other's.
func TestMergeSortedNeverAliases(t *testing.T) {
	a := []int{1, 3, 5}
	got := mergeSorted(a, nil)
	if len(got) != 3 {
		t.Fatalf("merge with empty b: got %v", got)
	}
	got[0] = 99
	if a[0] == 99 {
		t.Fatal("mergeSorted(a, nil) aliased its input")
	}
}

// Union with an empty other must leave s usable and unaliased: mutating the
// merged edge list afterwards must not reach into any previously shared
// backing array.
func TestUnionWithEmptyOtherClones(t *testing.T) {
	g, tr, p := pathWithTree(t, 6)
	base := [][]int{{0, 1}}
	s1, err := New(g, tr, p, base)
	if err != nil {
		t.Fatal(err)
	}
	s2 := Empty(g, tr, p)
	before := append([]int(nil), s1.Edges()[0]...)
	shared := s1.Edges()[0]
	if err := s1.Union(s2); err != nil {
		t.Fatal(err)
	}
	s1.Edges()[0][0] = 4 // in-place mutation of the merged result
	if shared[0] != before[0] {
		t.Fatal("union result aliased the pre-union edge list")
	}
}
