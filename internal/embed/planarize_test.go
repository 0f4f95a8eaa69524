package embed_test

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestTreeCotreePlanar(t *testing.T) {
	e := gen.Grid(4, 5)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	cotree, leftover, err := embed.TreeCotree(e.Emb, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("planar leftover = %v want none", leftover)
	}
	// Tree + cotree must partition the edges.
	if len(cotree)+(e.G.N()-1) != e.G.M() {
		t.Fatalf("tree-cotree does not partition edges")
	}
}

func TestTreeCotreeTorus(t *testing.T) {
	e := gen.Torus(4, 4)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, leftover, err := embed.TreeCotree(e.Emb, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 2 {
		t.Fatalf("torus leftover %d edges want 2g=2", len(leftover))
	}
}

func TestInducedCycleIsCycle(t *testing.T) {
	e := gen.Grid(3, 3)
	tr, _ := graph.BFSTree(e.G, 0)
	l := graph.NewLCA(tr)
	inTree := make(map[int]bool)
	for _, id := range tr.TreeEdgeIDs() {
		inTree[id] = true
	}
	for id := 0; id < e.G.M(); id++ {
		if inTree[id] {
			continue
		}
		cyc := embed.InducedCycle(tr, l, id)
		// Each vertex in the edge set must have even degree (it is a cycle).
		deg := make(map[int]int)
		for _, cid := range cyc {
			ce := e.G.Edge(cid)
			deg[ce.U]++
			deg[ce.V]++
		}
		for v, d := range deg {
			if d != 2 {
				t.Fatalf("non-tree edge %d: vertex %d has degree %d in induced cycle", id, v, d)
			}
		}
	}
}

func TestCutTriangleAlongAllEdges(t *testing.T) {
	// Cutting a sphere-embedded triangle along all its edges yields two
	// disjoint triangles (the two faces).
	g := graph.New(3)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e20 := g.AddEdge(2, 0, 1)
	rot := [][]int{
		{2 * e01, 2*e20 + 1},
		{2*e01 + 1, 2 * e12},
		{2*e12 + 1, 2 * e20},
	}
	e, err := embed.New(g, rot)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := embed.Cut(e, []int{e01, e12, e20})
	if err != nil {
		t.Fatal(err)
	}
	if cut.PG.N() != 6 || cut.PG.M() != 6 {
		t.Fatalf("cut triangle: n=%d m=%d want 6,6", cut.PG.N(), cut.PG.M())
	}
	comps, _ := graph.Components(cut.PG)
	if len(comps) != 2 || len(comps[0]) != 3 || len(comps[1]) != 3 {
		t.Fatalf("components %v want two triangles", comps)
	}
	if got := cut.Emb.Genus(); got != 0 {
		t.Fatalf("cut graph genus %d want 0", got)
	}
	for v := 0; v < cut.PG.N(); v++ {
		if !cut.Outer[v] {
			t.Fatalf("vertex %d should be an outer node", v)
		}
	}
}

func TestCutGridAlongFaceCycle(t *testing.T) {
	// Cutting the plane along an inner face's 4-cycle separates that face's
	// interior; here the interior is empty so we get the quad itself plus
	// the rest.
	e := gen.Grid(4, 4)
	// Find an inner quadrilateral face.
	faces, _ := e.Emb.Faces()
	var quad []int
	for _, f := range faces {
		if len(f) == 4 {
			seen := map[int]bool{}
			ok := true
			for _, d := range f {
				id := embed.EdgeOf(d)
				if seen[id] {
					ok = false
				}
				seen[id] = true
			}
			if ok {
				quad = f
				break
			}
		}
	}
	if quad == nil {
		t.Fatal("no quad face found")
	}
	var cutIDs []int
	for _, d := range quad {
		cutIDs = append(cutIDs, embed.EdgeOf(d))
	}
	cut, err := embed.Cut(e.Emb, cutIDs)
	if err != nil {
		t.Fatal(err)
	}
	comps, _ := graph.Components(cut.PG)
	if len(comps) != 2 {
		t.Fatalf("cut along a face cycle gives %d components want 2", len(comps))
	}
	if got := cut.Emb.Genus(); got != 0 {
		t.Fatalf("genus after planar cut: %d", got)
	}
	// One component is the 4-cycle copy.
	if len(comps[0]) != 4 && len(comps[1]) != 4 {
		t.Fatalf("no 4-cycle component: sizes %d,%d", len(comps[0]), len(comps[1]))
	}
}

func TestPlanarizeTorus(t *testing.T) {
	for _, dims := range [][2]int{{3, 3}, {4, 6}, {6, 6}} {
		e := gen.Torus(dims[0], dims[1])
		tr, err := graph.BFSTree(e.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		cut, err := embed.Planarize(e.Emb, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := cut.Emb.Genus(); got != 0 {
			t.Fatalf("torus %v planarization has genus %d", dims, got)
		}
		// Lemma 11(ii): all outer nodes lie on a common face.
		assertOuterOnCommonFace(t, cut)
		// Projection covers all original vertices.
		seen := make([]bool, e.G.N())
		for _, ov := range cut.Proj {
			seen[ov] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("original vertex %d lost in planarization", v)
			}
		}
		// Edge projection: every original edge yields 1 (uncut) or 2 (cut)
		// images.
		images := make([]int, e.G.M())
		for _, oid := range cut.EdgeProj {
			images[oid]++
		}
		for id, c := range images {
			if c != 1 && c != 2 {
				t.Fatalf("edge %d has %d images", id, c)
			}
		}
	}
}

func TestPlanarizeGenus2(t *testing.T) {
	e := gen.GenusChain(2, 3, 4)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := embed.Planarize(e.Emb, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := cut.Emb.Genus(); got != 0 {
		t.Fatalf("genus-2 planarization has genus %d", got)
	}
	assertOuterOnCommonFace(t, cut)
}

func assertOuterOnCommonFace(t *testing.T, cut *embed.CutGraph) {
	t.Helper()
	var outer []int
	for v, ok := range cut.Outer {
		if ok {
			outer = append(outer, v)
		}
	}
	if len(outer) == 0 {
		t.Fatal("planarization produced no outer nodes")
	}
	faces, _ := cut.Emb.Faces()
	for _, f := range faces {
		on := make(map[int]bool)
		for _, v := range cut.Emb.FaceVertices(f) {
			on[v] = true
		}
		all := true
		for _, v := range outer {
			if !on[v] {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	t.Fatal("no face contains all outer nodes (Lemma 11(ii) violated)")
}

func TestPlanarizePlanarIsNoop(t *testing.T) {
	e := gen.Grid(3, 4)
	tr, _ := graph.BFSTree(e.G, 0)
	cut, err := embed.Planarize(e.Emb, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cut.PG.N() != e.G.N() || cut.PG.M() != e.G.M() {
		t.Fatalf("planar planarization changed the graph: %d,%d -> %d,%d",
			e.G.N(), e.G.M(), cut.PG.N(), cut.PG.M())
	}
}
