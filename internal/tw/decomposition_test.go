package tw_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tw"
)

func TestValidateAcceptsKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 2, 3, 5} {
		kt := gen.KTree(50, k, rng)
		if err := kt.Decomp.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if w := kt.Decomp.Width(); w != k {
			t.Fatalf("k=%d: width %d", k, w)
		}
	}
}

func TestValidateRejectsBadDecompositions(t *testing.T) {
	g := gen.Path(4)
	// Missing vertex.
	d := &tw.Decomposition{G: g, Bags: [][]int{{0, 1}, {1, 2}}, Adj: [][]int{{1}, {0}}}
	if err := d.Validate(); err == nil {
		t.Fatal("accepted missing vertex")
	}
	// Missing edge.
	d = &tw.Decomposition{G: g, Bags: [][]int{{0, 1}, {1, 2}, {3}}, Adj: [][]int{{1}, {0, 2}, {1}}}
	if err := d.Validate(); err == nil {
		t.Fatal("accepted missing edge")
	}
	// Incoherent: vertex 1 in bags 0 and 2 but not 1.
	d = &tw.Decomposition{G: g, Bags: [][]int{{0, 1}, {2, 3}, {1, 2}}, Adj: [][]int{{1}, {0, 2}, {1}}}
	if err := d.Validate(); err == nil {
		t.Fatal("accepted incoherent decomposition")
	}
	// Not a tree.
	d = &tw.Decomposition{G: g, Bags: [][]int{{0, 1}, {1, 2}, {2, 3}}, Adj: [][]int{{1, 2}, {0, 2}, {0, 1}}}
	if err := d.Validate(); err == nil {
		t.Fatal("accepted cyclic bag graph")
	}
}

func TestRepairCoherence(t *testing.T) {
	g := gen.Path(4)
	d := &tw.Decomposition{
		G:    g,
		Bags: [][]int{{0, 1}, {2, 3}, {1, 2}},
		Adj:  [][]int{{1}, {0, 2}, {1}},
	}
	d.RepairCoherence()
	if err := d.Validate(); err != nil {
		t.Fatalf("repair did not fix coherence: %v", err)
	}
}

func TestCotreeDecompositionOnPlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		name string
		e    *gen.Embedded
	}{
		{"grid5x5", gen.Grid(5, 5)},
		{"grid2x20", gen.Grid(2, 20)},
		{"wheel20", gen.Wheel(20)},
		{"outerplanar", gen.Outerplanar(30, 10, rng)},
		{"apollonian", apollonianEmbedded(40, rng)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := graph.BFSTree(tc.e.G, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := tw.FromEmbeddingByCotree(tc.e.Emb, tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			// Width should be bounded by O(maxFace * height).
			if w := d.Width(); w > 8*(tr.Height()+1) {
				t.Fatalf("width %d too large for tree height %d", w, tr.Height())
			}
		})
	}
}

func TestCotreeRejectsNonPlanar(t *testing.T) {
	e := gen.Torus(4, 4)
	tr, _ := graph.BFSTree(e.G, 0)
	if _, err := tw.FromEmbeddingByCotree(e.Emb, tr); err == nil {
		t.Fatal("accepted torus embedding")
	}
}

func TestPartialKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pk := gen.PartialKTree(80, 3, 0.4, rng)
	if !graph.IsConnected(pk.G) {
		t.Fatal("partial k-tree disconnected")
	}
	if err := pk.Decomp.Validate(); err != nil {
		t.Fatal(err)
	}
	full := gen.KTree(80, 3, rand.New(rand.NewSource(4)))
	if pk.G.M() >= full.G.M() {
		t.Fatal("no edges were dropped")
	}
}

// apollonianEmbedded returns an Apollonian network with its embedding
// materialized (NewApollonian defers it).
func apollonianEmbedded(n int, rng *rand.Rand) *gen.Embedded {
	a := gen.NewApollonian(n, rng)
	a.EnsureEmbedding()
	return &a.Embedded
}
