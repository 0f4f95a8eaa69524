package graph

import "fmt"

// EdgeLess is the canonical total order on edges used across the repository:
// by weight, ties broken by edge ID. Using a total order makes the minimum
// spanning tree unique, which lets distributed implementations be checked
// edge-for-edge against the sequential reference.
func EdgeLess(g *Graph, a, b int) bool {
	ea, eb := g.Edge(a), g.Edge(b)
	if ea.W != eb.W {
		return ea.W < eb.W
	}
	return a < b
}

// Kruskal computes the minimum spanning tree (forest, if disconnected) of g
// under the canonical edge order and returns the chosen edge IDs sorted
// ascending, together with the total weight. It runs CSR.MST on a snapshot
// of g, so like NewCSR it panics on RemoveEdge tombstones.
func Kruskal(g *Graph) (ids []int, weight float64) {
	ids32, weight := NewCSR(g).MST()
	ids = make([]int, len(ids32))
	for i, id := range ids32 {
		ids[i] = int(id)
	}
	return ids, weight
}

// TreeFromEdgeIDs builds a rooted Tree from a set of edge IDs that must form
// a spanning tree of g.
func TreeFromEdgeIDs(g *Graph, ids []int, root int) (*Tree, error) {
	if err := checkRoot("graph.TreeFromEdgeIDs", g, root); err != nil {
		return nil, err
	}
	if len(ids) != g.N()-1 {
		return nil, fmt.Errorf("graph.TreeFromEdgeIDs: %d edges cannot span %d vertices", len(ids), g.N())
	}
	adj := make([][]Arc, g.N())
	for _, id := range ids {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], Arc{To: e.V, ID: id})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, ID: id})
	}
	parent := make([]int, g.N())
	parentEdge := make([]int, g.N())
	for i := range parent {
		parent[i] = -2 // unvisited marker
		parentEdge[i] = -1
	}
	parent[root] = -1
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, a := range adj[v] {
			if parent[a.To] == -2 {
				parent[a.To] = v
				parentEdge[a.To] = a.ID
				queue = append(queue, a.To)
			}
		}
	}
	for v, p := range parent {
		if p == -2 {
			return nil, fmt.Errorf("graph.TreeFromEdgeIDs: vertex %d unreachable: %w", v, ErrDisconnected)
		}
	}
	return TreeFromParents(g, root, parent, parentEdge)
}
