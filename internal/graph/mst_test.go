package graph

import (
	"math/rand"
	"testing"
)

func TestKruskalSimple(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1) // 0
	g.AddEdge(1, 2, 2) // 1
	g.AddEdge(2, 3, 3) // 2
	g.AddEdge(3, 0, 4) // 3
	g.AddEdge(0, 2, 5) // 4
	ids, w := Kruskal(g)
	if w != 6 {
		t.Fatalf("weight %v want 6", w)
	}
	want := []int{0, 1, 2}
	if len(ids) != 3 {
		t.Fatalf("ids %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids %v want %v", ids, want)
		}
	}
}

func TestKruskalTieBreakByID(t *testing.T) {
	// Two parallel weight-1 edges: the lower ID must win.
	g := New(2)
	g.AddEdge(0, 1, 1) // 0
	g.AddEdge(0, 1, 1) // 1
	ids, _ := Kruskal(g)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ids %v want [0]", ids)
	}
}

func TestTreeFromEdgeIDs(t *testing.T) {
	g := mustGrid(t, 3, 3)
	ids, _ := Kruskal(g)
	tr, err := TreeFromEdgeIDs(g, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root != 4 || tr.N() != 9 {
		t.Fatalf("root %d n %d", tr.Root, tr.N())
	}
	// Wrong edge count rejected.
	if _, err := TreeFromEdgeIDs(g, ids[:5], 0); err == nil {
		t.Fatal("expected error for too few edges")
	}
	// Non-spanning edge set rejected.
	bad := append([]int(nil), ids...)
	bad[0] = bad[1] // duplicate edge: can't span
	if _, err := TreeFromEdgeIDs(g, bad, 0); err == nil {
		t.Fatal("expected error for non-spanning set")
	}
}

func TestMSTWeightInvariantUnderPermutation(t *testing.T) {
	// Property: relabeling weights by a positive monotone map preserves the
	// MST edge set (with distinct weights).
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(40)
		g := randomConnected(rng, n, 2*n)
		// Make weights distinct.
		for id := 0; id < g.M(); id++ {
			g.SetWeight(id, float64(id)+rng.Float64()*0.5)
		}
		ids1, _ := Kruskal(g)
		h := g.Clone()
		for id := 0; id < h.M(); id++ {
			w := h.Edge(id).W
			h.SetWeight(id, w*w+3) // strictly monotone for w >= 0
		}
		ids2, _ := Kruskal(h)
		if len(ids1) != len(ids2) {
			t.Fatal("MST size changed under monotone reweighting")
		}
		for i := range ids1 {
			if ids1[i] != ids2[i] {
				t.Fatal("MST edges changed under monotone reweighting")
			}
		}
	}
}
