package gen_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBasicShapes(t *testing.T) {
	tests := []struct {
		name       string
		g          *graph.Graph
		n, m, diam int
	}{
		{"path", gen.Path(7), 7, 6, 6},
		{"cycle", gen.Cycle(8), 8, 8, 4},
		{"star", gen.Star(9), 9, 8, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Fatalf("n,m = %d,%d want %d,%d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
			if d := graph.Diameter(tc.g); d != tc.diam {
				t.Fatalf("diameter %d want %d", d, tc.diam)
			}
			if err := tc.g.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		g := gen.RandomTree(n, rng)
		if g.M() != n-1 || !graph.IsConnected(g) || !graph.IsForest(g) {
			t.Fatalf("n=%d: not a tree (m=%d)", n, g.M())
		}
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(nRaw, mRaw uint8) bool {
		n := 2 + int(nRaw)%100
		m := n - 1 + int(mRaw)%100
		g := gen.ErdosRenyiConnected(n, m, rng)
		return graph.IsConnected(g) && g.M() >= n-1 && g.M() <= m && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyiDenseCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Ask for more edges than the complete graph has: must terminate.
	g := gen.ErdosRenyiConnected(6, 100, rng)
	if g.M() > 15 {
		t.Fatalf("m=%d exceeds complete graph", g.M())
	}
}

func TestWeightHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := gen.UniformWeights(gen.Cycle(10), rng)
	for id := 0; id < g.M(); id++ {
		w := g.Edge(id).W
		if w < 1 || w >= 2 {
			t.Fatalf("weight %v outside [1,2)", w)
		}
	}
	gen.DistinctWeights(g)
	seen := map[float64]bool{}
	for id := 0; id < g.M(); id++ {
		w := g.Edge(id).W
		if seen[w] {
			t.Fatalf("duplicate weight %v", w)
		}
		seen[w] = true
	}
}

func TestGridDiameterFormula(t *testing.T) {
	for _, tc := range [][3]int{{2, 3, 3}, {5, 5, 8}, {1, 9, 8}} {
		e := gen.Grid(tc[0], tc[1])
		if d := graph.Diameter(e.G); d != tc[2] {
			t.Fatalf("%dx%d diameter %d want %d", tc[0], tc[1], d, tc[2])
		}
	}
}

func TestTorusRegularity(t *testing.T) {
	e := gen.Torus(4, 5)
	for v := 0; v < e.G.N(); v++ {
		if e.G.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d", v, e.G.Degree(v))
		}
	}
	if e.G.M() != 2*e.G.N() {
		t.Fatalf("torus m=%d want %d", e.G.M(), 2*e.G.N())
	}
}

func TestKTreeEdgeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 2, 4} {
		n := 30
		kt := gen.KTree(n, k, rng)
		// k-tree edges: k(k-1)/2 seed + k per added vertex (n-k of them).
		want := k*(k-1)/2 + k*(n-k)
		if kt.G.M() != want {
			t.Fatalf("k=%d: m=%d want %d", k, kt.G.M(), want)
		}
		if kt.Decomp.Width() != k {
			t.Fatalf("width %d", kt.Decomp.Width())
		}
	}
}

func TestApollonianCornersRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := gen.NewApollonian(30, rng)
	if len(a.Corners) != 27 {
		t.Fatalf("corners %d want 27", len(a.Corners))
	}
	for i, c := range a.Corners {
		v := i + 3
		for _, u := range c {
			if !a.G.HasEdge(v, u) {
				t.Fatalf("vertex %d not adjacent to recorded corner %d", v, u)
			}
		}
	}
}

func TestCliqueSumChainDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pieces := make([]*gen.Piece, 10)
	for i := range pieces {
		pieces[i] = gen.GridPiece(3, 3)
	}
	cs := gen.CliqueSumChain(pieces, 2, rng)
	if err := cs.CST.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chain: bag i adjacent to i-1 and i+1 only.
	for bi, ns := range cs.CST.Adj {
		wantDeg := 2
		if bi == 0 || bi == len(cs.CST.Bags)-1 {
			wantDeg = 1
		}
		if len(ns) != wantDeg {
			t.Fatalf("bag %d degree %d want %d", bi, len(ns), wantDeg)
		}
	}
}

func TestLowerBoundSizes(t *testing.T) {
	lb := gen.LowerBound(5, 8)
	// 5*8 path vertices + 8 leaves + internal tree nodes.
	if lb.G.N() < 48 {
		t.Fatalf("n=%d too small", lb.G.N())
	}
	if len(lb.Paths) != 5 {
		t.Fatalf("paths %d", len(lb.Paths))
	}
	for _, p := range lb.Paths {
		if len(p) != 8 {
			t.Fatalf("path length %d", len(p))
		}
	}
	if lb.Root < 0 || lb.Root >= lb.G.N() {
		t.Fatalf("root %d", lb.Root)
	}
}

func TestAlmostEmbeddableApexDegreeOption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
		Base:       gen.Grid(5, 5),
		NumApices:  1,
		ApexDegree: 3,
	}, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := a.G.Degree(a.Apices[0]); d != 3 {
		t.Fatalf("apex degree %d want 3", d)
	}
	full := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
		Base:       gen.Grid(5, 5),
		NumApices:  1,
		ApexDegree: 0,
	}, rng)
	if d := full.G.Degree(full.Apices[0]); d != 25 {
		t.Fatalf("apex degree %d want 25", d)
	}
}

func TestVortexDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, depth := range []int{1, 2, 3} {
		a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
			Base:        gen.Grid(6, 6),
			NumVortices: 1,
			VortexDepth: depth,
			VortexNodes: 5,
		}, rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
	}
}

func TestGenusChainVertexCount(t *testing.T) {
	e := gen.GenusChain(3, 3, 3)
	// Three 9-vertex tori glued at 2 shared vertices.
	if e.G.N() != 27-2 {
		t.Fatalf("n=%d want 25", e.G.N())
	}
}
