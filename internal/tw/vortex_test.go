package tw_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tw"
)

// TestLemma2VortexExtensionWidth reproduces Lemma 2's shape: a planar graph
// of diameter D with one vortex of depth k has treewidth O((g+1)kD). We
// build the vortex graph, decompose the base by cotree bags, extend with
// AddAttachedVertices, and check the width stays within a constant of
// k times the base width.
func TestLemma2VortexExtensionWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3} {
		a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
			Base:        gen.Grid(7, 7),
			NumVortices: 1,
			VortexDepth: k,
			VortexNodes: 5,
		}, rng)
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		bt, err := graph.BFSTree(a.Base, 0)
		if err != nil {
			t.Fatal(err)
		}
		baseD, err := tw.FromEmbeddingByCotree(a.BaseEmb, bt)
		if err != nil {
			t.Fatal(err)
		}
		attach := make([][]int, a.G.N()-a.BaseN)
		for v := a.BaseN; v < a.G.N(); v++ {
			for _, arc := range a.G.Adj(v) {
				attach[v-a.BaseN] = append(attach[v-a.BaseN], arc.To)
			}
		}
		full, err := tw.AddAttachedVertices(baseD, a.G, a.BaseN, attach)
		if err != nil {
			t.Fatal(err)
		}
		if err := full.Validate(); err != nil {
			t.Fatal(err)
		}
		// Lemma 2 shape: width grows by at most a k-dependent factor.
		bound := (k + 2) * (baseD.Width() + 2)
		if full.Width() > bound {
			t.Fatalf("k=%d: extended width %d exceeds Lemma 2 shape %d (base %d)",
				k, full.Width(), bound, baseD.Width())
		}
	}
}

// TestAddAttachedVerticesErrors checks the input validation.
func TestAddAttachedVerticesErrors(t *testing.T) {
	g := gen.Path(4)
	bt, _ := graph.BFSTree(g, 0)
	e := gen.Grid(2, 2)
	d, err := tw.FromEmbeddingByCotree(e.Emb, func() *graph.Tree {
		tr, _ := graph.BFSTree(e.G, 0)
		return tr
	}())
	if err != nil {
		t.Fatal(err)
	}
	_ = bt
	// Wrong attach count.
	if _, err := tw.AddAttachedVertices(d, g, 2, [][]int{{0}}); err == nil {
		t.Fatal("accepted mismatched attach list")
	}
}

// TestAddAttachedVerticesIsolated places an unattached vertex in bag 0.
func TestAddAttachedVerticesIsolated(t *testing.T) {
	// Base: single edge. Full: base + isolated-ish vertex attached nowhere
	// (no edges), allowed by placing it in bag 0.
	full := graph.New(3)
	full.AddEdge(0, 1, 1)
	base := graph.New(2)
	base.AddEdge(0, 1, 1)
	d := &tw.Decomposition{G: base, Bags: [][]int{{0, 1}}, Adj: make([][]int, 1)}
	nd, err := tw.AddAttachedVertices(d, full, 2, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range nd.Bags[0] {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("unattached vertex not in bag 0")
	}
}

// TestTrivialDecomposition: one bag holding every vertex is a valid
// decomposition of width n-1.
func TestTrivialDecomposition(t *testing.T) {
	g := gen.Cycle(5)
	d, err := tw.FromBags(g, [][]int{{0, 1, 2, 3, 4}}, []int{-1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 4 {
		t.Fatalf("width %d", d.Width())
	}
}

// TestTorusColumnsDecomposition validates the genus witness generator.
func TestTorusColumnsDecomposition(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 6}, {5, 5}} {
		e := gen.Torus(dims[0], dims[1])
		d := gen.TorusColumnsDecomposition(e, dims[0], dims[1])
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if d.Width() > 3*dims[0] {
			t.Fatalf("%v: width %d too large", dims, d.Width())
		}
	}
}
