package embed

import (
	"fmt"

	"repro/internal/graph"
)

// TreeCotree computes a tree-cotree decomposition of a connected embedding:
// a primal spanning tree T (the given one), a dual spanning tree ("cotree")
// disjoint from T, and the leftover edges X in neither. Euler's formula
// forces |X| = 2g, and the cycles induced in T by the X edges generate the
// fundamental group of the surface (Eppstein). These are exactly the
// generating cycles used by the paper's Planarization Lemma (Lemma 11).
func TreeCotree(e *Embedding, t *graph.Tree) (cotreeEdges, leftover []int, err error) {
	if t.G != e.G {
		return nil, nil, fmt.Errorf("embed.TreeCotree: tree is not over the embedded graph")
	}
	inTree := make([]bool, e.G.M())
	for _, id := range t.TreeEdgeIDs() {
		inTree[id] = true
	}
	faces, faceOf := e.Faces()
	uf := graph.NewUnionFind(len(faces))
	for id := 0; id < e.G.M(); id++ {
		if inTree[id] {
			continue
		}
		f1, f2 := faceOf[2*id], faceOf[2*id+1]
		if f1 != f2 && uf.Union(f1, f2) {
			cotreeEdges = append(cotreeEdges, id)
		} else {
			leftover = append(leftover, id)
		}
	}
	// Sanity: Euler's formula gives |leftover| = 2g on a connected surface.
	if want := 2 * e.Genus(); len(leftover) != want && graph.IsConnected(e.G) {
		return nil, nil, fmt.Errorf("embed.TreeCotree: %d leftover edges, want 2g=%d", len(leftover), want)
	}
	return cotreeEdges, leftover, nil
}

// InducedCycle returns the edge IDs of the cycle formed by non-tree edge id
// together with the tree path between its endpoints.
func InducedCycle(t *graph.Tree, l *graph.LCA, id int) []int {
	e := t.G.Edge(id)
	a := l.Query(e.U, e.V)
	ids := []int{id}
	for v := e.U; v != a; v = t.Parent[v] {
		ids = append(ids, t.ParentEdge[v])
	}
	for v := e.V; v != a; v = t.Parent[v] {
		ids = append(ids, t.ParentEdge[v])
	}
	return ids
}

// GeneratingCycles returns, for a connected embedded graph with spanning tree
// t, the edge set of the union of the 2g generating cycles (the cycles
// induced by the leftover edges of a tree-cotree decomposition). Cutting the
// surface along this set planarizes the graph (Lemma 11).
func GeneratingCycles(e *Embedding, t *graph.Tree) (cutEdges []int, err error) {
	_, leftover, err := TreeCotree(e, t)
	if err != nil {
		return nil, err
	}
	l := graph.NewLCA(t)
	inCut := make([]bool, e.G.M())
	for _, id := range leftover {
		for _, cid := range InducedCycle(t, l, id) {
			inCut[cid] = true
		}
	}
	for id, ok := range inCut {
		if ok {
			cutEdges = append(cutEdges, id)
		}
	}
	return cutEdges, nil
}
