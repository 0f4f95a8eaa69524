package graph

import (
	"fmt"
	"sort"
)

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
// ascending, together with the total weight.
func Kruskal(g *Graph) (ids []int, weight float64) {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return EdgeLess(g, order[i], order[j]) })
	uf := NewUnionFind(g.N())
	for _, id := range order {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			ids = append(ids, id)
			weight += e.W
		}
	}
	sort.Ints(ids)
	return ids, weight
}

// Prim computes the MST edge IDs of a connected graph under the canonical
// order using a lazy binary heap. It returns an error if g is disconnected.
func Prim(g *Graph) (ids []int, weight float64, err error) {
	if g.N() == 0 {
		return nil, 0, nil
	}
	in := make([]bool, g.N())
	h := &edgeHeap{g: g}
	visit := func(v int) {
		in[v] = true
		for _, a := range g.Adj(v) {
			if !in[a.To] {
				h.push(a.ID)
			}
		}
	}
	visit(0)
	for h.len() > 0 {
		id := h.pop()
		e := g.Edge(id)
		var nv int
		switch {
		case in[e.U] && in[e.V]:
			continue
		case in[e.U]:
			nv = e.V
		default:
			nv = e.U
		}
		ids = append(ids, id)
		weight += e.W
		visit(nv)
	}
	for v := 0; v < g.N(); v++ {
		if !in[v] {
			return nil, 0, fmt.Errorf("graph.Prim: %w", ErrDisconnected)
		}
	}
	sort.Ints(ids)
	return ids, weight, nil
}

// edgeHeap is a binary min-heap of edge IDs ordered by EdgeLess.
type edgeHeap struct {
	g   *Graph
	ids []int
}

func (h *edgeHeap) len() int { return len(h.ids) }

func (h *edgeHeap) push(id int) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !EdgeLess(h.g, h.ids[i], h.ids[p]) {
			break
		}
		h.ids[i], h.ids[p] = h.ids[p], h.ids[i]
		i = p
	}
}

func (h *edgeHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ids) && EdgeLess(h.g, h.ids[l], h.ids[small]) {
			small = l
		}
		if r < len(h.ids) && EdgeLess(h.g, h.ids[r], h.ids[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ids[i], h.ids[small] = h.ids[small], h.ids[i]
		i = small
	}
	return top
}

// BoruvkaPhases runs sequential Borůvka's algorithm and returns the MST edge
// IDs (sorted), the total weight, and the number of phases taken. It is the
// sequential reference for the distributed Borůvka in internal/mst; the phase
// count is the quantity multiplied by shortcut quality in Theorem 1's round
// bound.
func BoruvkaPhases(g *Graph) (ids []int, weight float64, phases int) {
	uf := NewUnionFind(g.N())
	chosen := make([]bool, g.M())
	best := make([]int, g.N()) // component rep -> best outgoing edge ID, -1 if none
	for uf.Count() > 1 {
		for i := range best {
			best[i] = -1
		}
		found := false
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			found = true
			for _, r := range [2]int{ru, rv} {
				if b := best[r]; b == -1 || EdgeLess(g, id, b) {
					best[r] = id
				}
			}
		}
		if !found {
			break // disconnected: remaining components have no outgoing edges
		}
		merged := false
		for _, id := range best {
			if id == -1 {
				continue
			}
			e := g.Edge(id)
			if uf.Union(e.U, e.V) {
				merged = true
			}
			if !chosen[id] {
				chosen[id] = true
				weight += e.W
			}
		}
		phases++
		if !merged {
			break
		}
	}
	ids = make([]int, 0, g.N()-1)
	for id, c := range chosen {
		if c {
			ids = append(ids, id)
		}
	}
	return ids, weight, phases
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
