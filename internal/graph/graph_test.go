package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPath(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func mustCycle(t *testing.T, n int) *Graph {
	t.Helper()
	g := mustPath(t, n)
	g.AddEdge(n-1, 0, 1)
	return g
}

func mustGrid(t *testing.T, rows, cols int) *Graph {
	t.Helper()
	g := New(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(at(r, c), at(r, c+1), 1)
			}
			if r+1 < rows {
				g.AddEdge(at(r, c), at(r+1, c), 1)
			}
		}
	}
	return g
}

func randomConnected(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64())
		}
	}
	return g
}

func TestAddEdgeAndAccessors(t *testing.T) {
	g := New(3)
	id := g.AddEdge(0, 1, 2.5)
	if id != 0 {
		t.Fatalf("first edge ID = %d, want 0", id)
	}
	id2 := g.AddEdge(1, 2, 1.5)
	if id2 != 1 {
		t.Fatalf("second edge ID = %d, want 1", id2)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N,M = %d,%d want 3,2", g.N(), g.M())
	}
	if e := g.Edge(0); e.U != 0 || e.V != 1 || e.W != 2.5 {
		t.Fatalf("Edge(0) = %+v", e)
	}
	if got := g.Other(0, 0); got != 1 {
		t.Fatalf("Other(0,0) = %d want 1", got)
	}
	if got := g.Other(0, 1); got != 0 {
		t.Fatalf("Other(0,1) = %d want 0", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.FindEdge(1, 2) != 1 || g.FindEdge(0, 2) != -1 {
		t.Fatal("FindEdge wrong")
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d want 2", g.Degree(1))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"self-loop", func() { g.AddEdge(1, 1, 1) }},
		{"out-of-range", func() { g.AddEdge(0, 5, 1) }},
		{"negative", func() { g.AddEdge(-1, 0, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestAddVertex(t *testing.T) {
	g := New(1)
	v := g.AddVertex()
	if v != 1 || g.N() != 2 {
		t.Fatalf("AddVertex = %d, N = %d", v, g.N())
	}
	g.AddEdge(0, v, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("edge to new vertex missing")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustCycle(t, 4)
	c := g.Clone()
	c.AddEdge(0, 2, 9)
	if g.M() == c.M() {
		t.Fatal("clone shares edge list with original")
	}
	c.SetWeight(0, 100)
	if g.Edge(0).W == 100 {
		t.Fatal("clone shares edge storage")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustGrid(t, 3, 3)
	sub, oldToNew, orig := g.InducedSubgraph([]int{0, 1, 3, 4})
	if sub.N() != 4 {
		t.Fatalf("sub.N = %d", sub.N())
	}
	// Vertices 0,1,3,4 form a 2x2 grid: 4 edges.
	if sub.M() != 4 {
		t.Fatalf("sub.M = %d want 4", sub.M())
	}
	if len(orig) != 4 {
		t.Fatalf("edgeOrig length %d", len(orig))
	}
	for newID, oldID := range orig {
		ne, oe := sub.Edge(newID), g.Edge(oldID)
		if oldToNew[oe.U] != ne.U && oldToNew[oe.U] != ne.V {
			t.Fatalf("edge mapping broken for new edge %d", newID)
		}
	}
	if oldToNew[8] != -1 {
		t.Fatal("dropped vertex should map to -1")
	}
}

func TestSimplify(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 0, 2) // parallel, lighter
	g.AddEdge(1, 2, 1)
	s, kept := g.Simplify()
	if s.M() != 2 {
		t.Fatalf("simplified M = %d want 2", s.M())
	}
	if w := s.Edge(s.FindEdge(0, 1)).W; w != 2 {
		t.Fatalf("kept weight %v want 2 (lightest)", w)
	}
	if len(kept) != 2 {
		t.Fatalf("kept = %v", kept)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := mustPath(t, 3)
	g.adj[0] = append(g.adj[0], Arc{To: 2, ID: 0}) // lie: edge 0 is {0,1}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted adjacency")
	}
}

func TestBFSOnGrid(t *testing.T) {
	g := mustGrid(t, 4, 5)
	r := BFS(g, 0)
	if r.Dist[19] != 3+4 {
		t.Fatalf("dist to far corner = %d want 7", r.Dist[19])
	}
	if len(r.Order) != 20 {
		t.Fatalf("visited %d", len(r.Order))
	}
	// Parent pointers must decrease distance by exactly 1.
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			continue
		}
		if r.Dist[v] != r.Dist[r.Parent[v]]+1 {
			t.Fatalf("vertex %d: dist %d but parent dist %d", v, r.Dist[v], r.Dist[r.Parent[v]])
		}
		e := g.Edge(r.ParentEdge[v])
		if !((e.U == v && e.V == r.Parent[v]) || (e.V == v && e.U == r.Parent[v])) {
			t.Fatalf("vertex %d: parent edge mismatch", v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	r := BFS(g, 0)
	if r.Dist[2] != -1 || r.Dist[3] != -1 {
		t.Fatal("unreachable vertices should have dist -1")
	}
	if IsConnected(g) {
		t.Fatal("IsConnected wrong")
	}
	comps, of := Components(g)
	if len(comps) != 2 || of[0] == of[2] {
		t.Fatalf("components = %v of=%v", comps, of)
	}
}

func TestMultiBFSVoronoi(t *testing.T) {
	g := mustPath(t, 10)
	r := MultiBFS(g, []int{0, 9})
	if r.Owner[2] != 0 || r.Owner[7] != 1 {
		t.Fatalf("owners: %v", r.Owner)
	}
	// Each owner class must be connected.
	for i := 0; i < 2; i++ {
		var cell []int
		for v, o := range r.Owner {
			if o == i {
				cell = append(cell, v)
			}
		}
		if !ConnectedSubset(g, cell) {
			t.Fatalf("cell %d not connected: %v", i, cell)
		}
	}
	// Dist must be the min of distances to the two sources.
	for v := 0; v < 10; v++ {
		want := v
		if 9-v < want {
			want = 9 - v
		}
		if r.Dist[v] != want {
			t.Fatalf("dist[%d]=%d want %d", v, r.Dist[v], want)
		}
	}
}

func TestDiameterExactAndApprox(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path10", mustPath(t, 10), 9},
		{"cycle10", mustCycle(t, 10), 5},
		{"grid4x5", mustGrid(t, 4, 5), 7},
		{"single", New(1), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if d := Diameter(tc.g); d != tc.want {
				t.Fatalf("Diameter = %d want %d", d, tc.want)
			}
			if a := DiameterApprox(tc.g); a > tc.want || a < (tc.want+1)/2 {
				t.Fatalf("DiameterApprox = %d out of [%d,%d]", a, (tc.want+1)/2, tc.want)
			}
		})
	}
	if Diameter(func() *Graph { g := New(2); return g }()) != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
}

func TestConnectedSubset(t *testing.T) {
	g := mustGrid(t, 3, 3)
	if !ConnectedSubset(g, []int{0, 1, 2}) {
		t.Fatal("top row should be connected")
	}
	if ConnectedSubset(g, []int{0, 8}) {
		t.Fatal("opposite corners should not be connected")
	}
	if ConnectedSubset(g, nil) {
		t.Fatal("empty subset should not be connected")
	}
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	roots := func() int {
		n := 0
		for v := 0; v < 5; v++ {
			if u.Find(v) == v {
				n++
			}
		}
		return n
	}
	if got := roots(); got != 5 {
		t.Fatalf("%d sets want 5", got)
	}
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("unions should succeed")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union should report false")
	}
	if u.Find(0) != u.Find(2) || u.Find(0) == u.Find(3) {
		t.Fatal("Find wrong")
	}
	if got := roots(); got != 3 {
		t.Fatalf("%d sets want 3", got)
	}
}

func TestUnionFindQuick(t *testing.T) {
	// Property: after any sequence of unions, Find agrees with naive
	// component labeling.
	f := func(pairs []struct{ A, B uint8 }) bool {
		const n = 40
		u := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		relabel := func(from, to int) {
			for i := range naive {
				if naive[i] == from {
					naive[i] = to
				}
			}
		}
		for _, p := range pairs {
			a, b := int(p.A)%n, int(p.B)%n
			u.Union(a, b)
			if naive[a] != naive[b] {
				relabel(naive[a], naive[b])
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (u.Find(i) == u.Find(j)) != (naive[i] == naive[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
