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
			for x := u; x != -1; x = tr.Parent[x] {
				anc[x] = true
			}
			naive := v
			for !anc[naive] {
				naive = tr.Parent[naive]
			}
			if got := l.Query(u, v); got != naive {
				t.Fatalf("LCA(%d,%d) = %d want %d (n=%d)", u, v, got, naive, n)
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
