package graph

import (
	"math/rand"
	"testing"
)

func TestBFSTreeProperties(t *testing.T) {
	g := mustGrid(t, 5, 6)
	tr, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 0 || tr.N() != 30 {
		t.Fatalf("root=%d n=%d", tr.Root, tr.N())
	}
	if tr.Height() != 4+5 {
		t.Fatalf("height %d want 9", tr.Height())
	}
	if len(tr.TreeEdgeIDs()) != 29 {
		t.Fatalf("tree edges %d", len(tr.TreeEdgeIDs()))
	}
	// Every tree edge must be a real graph edge joining child and parent.
	for v := 0; v < tr.N(); v++ {
		if v == tr.Root {
			continue
		}
		if !tr.IsTreeEdge(tr.ParentEdge[v]) {
			t.Fatalf("parent edge of %d not recognized", v)
		}
	}
	// Non-tree edge is not a tree edge.
	for id := 0; id < g.M(); id++ {
		used := false
		for v := 0; v < g.N(); v++ {
			if tr.ParentEdge[v] == id {
				used = true
			}
		}
		if tr.IsTreeEdge(id) != used {
			t.Fatalf("IsTreeEdge(%d) = %v, want %v", id, tr.IsTreeEdge(id), used)
		}
	}
}

func TestBFSTreeDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, err := BFSTree(g, 0); err == nil {
		t.Fatal("expected error on disconnected graph")
	}
}

func TestTreeFromParentsValidation(t *testing.T) {
	g := mustPath(t, 4)
	// Correct construction.
	parent := []int{-1, 0, 1, 2}
	parentEdge := []int{-1, 0, 1, 2}
	tr, err := TreeFromParents(g, 0, parent, parentEdge)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth[3] != 3 {
		t.Fatalf("depth[3] = %d", tr.Depth[3])
	}
	// Wrong edge ID.
	bad := []int{-1, 0, 1, 1}
	if _, err := TreeFromParents(g, 0, parent, bad); err == nil {
		t.Fatal("expected edge mismatch error")
	}
	// Cycle in parents.
	cyc := []int{-1, 3, 1, 2}
	if _, err := TreeFromParents(g, 0, cyc, parentEdge); err == nil {
		t.Fatal("expected cycle detection")
	}
	// Roots outside [0, n) are rejected by every tree constructor.
	for _, root := range []int{-1, 4} {
		if _, err := TreeFromParents(g, root, parent, parentEdge); err == nil {
			t.Fatalf("TreeFromParents accepted root %d", root)
		}
		if _, err := BFSTree(g, root); err == nil {
			t.Fatalf("BFSTree accepted root %d", root)
		}
		if _, err := TreeFromEdgeIDs(g, []int{0, 1, 2}, root); err == nil {
			t.Fatalf("TreeFromEdgeIDs accepted root %d", root)
		}
	}
}

func TestPathToRoot(t *testing.T) {
	g := mustPath(t, 5)
	tr, _ := BFSTree(g, 0)
	p := tr.PathToRoot(4)
	want := []int{4, 3, 2, 1, 0}
	if len(p) != len(want) {
		t.Fatalf("path %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path %v want %v", p, want)
		}
	}
	ids := tr.EdgePathToRoot(4)
	if len(ids) != 4 {
		t.Fatalf("edge path %v", ids)
	}
}

func TestSubtreeSizes(t *testing.T) {
	g := mustPath(t, 6)
	tr, _ := BFSTree(g, 0)
	size := tr.SubtreeSizes()
	for v := 0; v < 6; v++ {
		if size[v] != 6-v {
			t.Fatalf("size[%d] = %d want %d", v, size[v], 6-v)
		}
	}
}

func TestLCAOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := randomConnected(rng, n, 0) // a random tree
		tr, err := BFSTree(g, rng.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		l := NewLCA(tr)
		// Check against naive ancestor-set intersection.
		for q := 0; q < 30; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			anc := map[int]bool{}
			for _, x := range tr.PathToRoot(u) {
				anc[x] = true
			}
			naive := -1
			for _, x := range tr.PathToRoot(v) {
				if anc[x] {
					naive = x
					break
				}
			}
			if got := l.Query(u, v); got != naive {
				t.Fatalf("LCA(%d,%d) = %d want %d (n=%d)", u, v, got, naive, n)
			}
			wantDist := tr.Depth[u] + tr.Depth[v] - 2*tr.Depth[naive]
			if got := l.Dist(u, v); got != wantDist {
				t.Fatalf("Dist(%d,%d) = %d want %d", u, v, got, wantDist)
			}
		}
	}
}

func TestLCAAncestor(t *testing.T) {
	g := mustPath(t, 8)
	tr, _ := BFSTree(g, 0)
	l := NewLCA(tr)
	if got := l.Ancestor(7, 3); got != 4 {
		t.Fatalf("Ancestor(7,3) = %d want 4", got)
	}
	if got := l.Ancestor(7, 7); got != 0 {
		t.Fatalf("Ancestor(7,7) = %d want 0", got)
	}
	if got := l.Ancestor(3, 10); got != -1 {
		t.Fatalf("Ancestor beyond root = %d want -1", got)
	}
}

func TestHLDChainBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 10 + rng.Intn(500)
		g := randomConnected(rng, n, 0)
		tr, err := BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHLD(tr)
		// log2(n) bound on chain changes along any root path.
		lg := 1
		for 1<<lg < n {
			lg++
		}
		for v := 0; v < n; v++ {
			if c := h.ChainChanges(v); c > lg+1 {
				t.Fatalf("n=%d vertex %d crosses %d chains > log bound %d", n, v, c, lg+1)
			}
		}
		// Chains partition the vertices and are downward paths.
		chains := h.Chains()
		seen := make([]bool, n)
		total := 0
		for _, ch := range chains {
			for i, v := range ch {
				if seen[v] {
					t.Fatalf("vertex %d in two chains", v)
				}
				seen[v] = true
				total++
				if i > 0 && tr.Parent[v] != ch[i-1] {
					t.Fatalf("chain not a downward path at %d", v)
				}
			}
		}
		if total != n {
			t.Fatalf("chains cover %d of %d", total, n)
		}
	}
}

func TestHLDHeavyChildIsLargest(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(2, 4, 1)
	tr, _ := BFSTree(g, 0)
	h := NewHLD(tr)
	if h.Heavy[0] != 2 {
		t.Fatalf("heavy child of root = %d want 2 (subtree size 3)", h.Heavy[0])
	}
}
