package structure_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/structure"
)

func TestCliqueSumOfGrids(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []*gen.Piece{
		gen.GridPiece(4, 4),
		gen.GridPiece(3, 5),
		gen.GridPiece(4, 4),
		gen.GridPiece(2, 6),
	}
	cs := gen.CliqueSum(pieces, 2, rng)
	if err := cs.CST.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(cs.G) {
		t.Fatal("clique-sum disconnected")
	}
	if len(cs.CST.Bags) != 4 {
		t.Fatalf("bags %d", len(cs.CST.Bags))
	}
	// 2-clique-sums of planar graphs stay planar (density check).
	if !graph.PlanarDensityOK(cs.G) {
		t.Fatal("density violation")
	}
}

func TestCliqueSumOfTriangulations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pieces := []*gen.Piece{
		gen.ApollonianPiece(20, rng),
		gen.ApollonianPiece(15, rng),
		gen.ApollonianPiece(25, rng),
	}
	cs := gen.CliqueSum(pieces, 3, rng)
	if err := cs.CST.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wagner: 3-clique-sums of planar graphs are K5-minor-free.
	found, _ := graph.HasCliqueMinorWitness(cs.G, 5, 300, rng)
	if found {
		t.Fatal("found K5 minor in 3-clique-sum of planar graphs")
	}
}

func TestCliqueSumOfKTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pieces := []*gen.Piece{
		gen.KTreePiece(30, 3, rng),
		gen.KTreePiece(20, 3, rng),
		gen.KTreePiece(25, 3, rng),
	}
	cs := gen.CliqueSum(pieces, 3, rng)
	if err := cs.CST.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueSumValidatorRejects(t *testing.T) {
	g := gen.Path(4)
	// Separator too big: K=0 but bags share a vertex.
	cst := &structure.CliqueSumTree{
		G: g,
		Bags: []structure.Bag{
			{Vertices: []int{0, 1, 2}, Edges: []int{0, 1}},
			{Vertices: []int{2, 3}, Edges: []int{2}},
		},
		Adj: [][]int{{1}, {0}},
		K:   0,
	}
	if err := cst.Validate(); err == nil {
		t.Fatal("accepted oversized separator")
	}
	cst.K = 1
	if err := cst.Validate(); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	// Edge not covered.
	cst.Bags[1].Edges = nil
	if err := cst.Validate(); err == nil {
		t.Fatal("accepted uncovered edge")
	}
	// Incoherent vertex.
	cst2 := &structure.CliqueSumTree{
		G: g,
		Bags: []structure.Bag{
			{Vertices: []int{0, 1, 3}, Edges: []int{0}},
			{Vertices: []int{1, 2}, Edges: []int{1}},
			{Vertices: []int{2, 3}, Edges: []int{2}},
		},
		Adj: [][]int{{1}, {0, 2}, {1}},
		K:   1,
	}
	if err := cst2.Validate(); err == nil {
		t.Fatal("accepted incoherent decomposition (vertex 3)")
	}
}

func TestAlmostEmbeddablePlanarVortexApex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
		Base:        gen.Grid(6, 6),
		NumVortices: 1,
		VortexDepth: 2,
		VortexNodes: 4,
		NumApices:   2,
		ApexDegree:  5,
	}, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(a.G) {
		t.Fatal("disconnected")
	}
	if len(a.Vortices) != 1 || len(a.Apices) != 2 {
		t.Fatalf("vortices %d apices %d", len(a.Vortices), len(a.Apices))
	}
	// Roles respond correctly.
	if !a.IsApex(a.Apices[0]) || a.IsApex(0) {
		t.Fatal("IsApex wrong")
	}
	if a.VortexOf(a.Vortices[0].Internal[0]) != 0 {
		t.Fatal("VortexOf wrong")
	}
	if a.VortexOf(0) != -1 {
		t.Fatal("base vertex assigned to vortex")
	}
}

func TestAlmostEmbeddableTorusBase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
		Base:        gen.Torus(5, 5),
		Genus:       1,
		NumVortices: 2,
		VortexDepth: 2,
		VortexNodes: 3,
		NumApices:   1,
		ApexDegree:  4,
	}, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAlmostEmbeddableValidatorRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
		Base:        gen.Grid(4, 4),
		NumVortices: 1,
		VortexDepth: 2,
		VortexNodes: 3,
	}, rng)
	// Tamper: claim lower depth than built.
	a.K = 0
	a.Vortices[0].Depth = 0
	// Depth 0 skips coverage checking, so instead tamper the vortex edges:
	// connect an internal node outside its arc via a non-boundary vertex.
	a.K = 2
	a.Vortices[0].Depth = 2
	in := a.Vortices[0].Internal[0]
	// Find a base vertex not on the boundary.
	onBoundary := make(map[int]bool)
	for _, v := range a.Vortices[0].Boundary {
		onBoundary[v] = true
	}
	outside := -1
	for v := 0; v < a.BaseN; v++ {
		if !onBoundary[v] {
			outside = v
			break
		}
	}
	if outside == -1 {
		t.Skip("no off-boundary vertex")
	}
	a.G.AddEdge(in, outside, 1)
	if err := a.Validate(); err == nil {
		t.Fatal("accepted vortex edge leaving the boundary")
	}
}

func TestCycleWithApexIsWheelLike(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := gen.CycleWithApex(20, rng)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := graph.Diameter(a.G); d != 2 {
		t.Fatalf("apexed cycle diameter %d want 2", d)
	}
	if d := graph.Diameter(a.Base); d != 10 {
		t.Fatalf("base cycle diameter %d want 10", d)
	}
}

func TestLowerBoundGraphShape(t *testing.T) {
	lb := gen.LowerBound(8, 16)
	if !graph.IsConnected(lb.G) {
		t.Fatal("disconnected")
	}
	// Paths are disjoint and connected.
	seen := make(map[int]bool)
	for _, p := range lb.Paths {
		if !graph.ConnectedSubset(lb.G, p) {
			t.Fatal("path not connected")
		}
		for _, v := range p {
			if seen[v] {
				t.Fatal("paths overlap")
			}
			seen[v] = true
		}
	}
	// Diameter is logarithmic in ell, not linear.
	if d := graph.Diameter(lb.G); d > 2*(4+2)+2 {
		t.Fatalf("diameter %d too large", d)
	}
}
