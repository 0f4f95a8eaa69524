// Package graph provides the core graph substrate used by the entire
// repository: weighted undirected multigraphs with stable edge identifiers,
// traversals, rooted spanning trees and LCA, union-find, sequential MST
// and min-cut reference algorithms, and minor operations (contraction,
// deletion, reductions).
//
// Vertices are dense integers 0..N()-1. Edges carry stable integer IDs in
// insertion order; all higher layers (shortcuts in particular) identify edges
// by ID so that congestion accounting stays exact even in the presence of
// parallel edges created by contractions.
package graph

import (
	"errors"
	"fmt"
	"math"
)

// Edge is an undirected weighted edge between U and V.
type Edge struct {
	U, V int
	W    float64
}

// Arc is one direction of an edge as stored in adjacency lists.
type Arc struct {
	To int // neighbor vertex
	ID int // edge ID, an index into the graph's edge list
}

// Graph is an undirected weighted multigraph. The zero value is an empty
// graph with no vertices; use New to create a graph with n vertices.
//
// Parallel edges are permitted (they arise naturally from contractions);
// self-loops are rejected. Graph is not safe for concurrent mutation but is
// safe for concurrent reads.
type Graph struct {
	adj   [][]Arc
	edges []Edge
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph.New: negative vertex count %d", n))
	}
	return &Graph{adj: make([][]Arc, n)}
}

// NewWithEdgeCapacity returns an empty graph with n vertices whose edge list
// is pre-sized for m edges, avoiding append-growth in construction loops.
func NewWithEdgeCapacity(n, m int) *Graph {
	g := New(n)
	if m > 0 {
		g.edges = make([]Edge, 0, m)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddVertices appends k isolated vertices and returns the index of the
// first, growing the adjacency table once.
func (g *Graph) AddVertices(k int) int {
	first := len(g.adj)
	g.adj = append(g.adj, make([][]Arc, k)...)
	return first
}

// ReserveVertices ensures capacity for at least extra more vertices.
func (g *Graph) ReserveVertices(extra int) {
	if cap(g.adj)-len(g.adj) >= extra {
		return
	}
	na := make([][]Arc, len(g.adj), len(g.adj)+extra)
	copy(na, g.adj)
	g.adj = na
}

// AddEdge inserts an undirected edge {u,v} with weight w and returns its ID.
// It panics on out-of-range endpoints or self-loops: both indicate programmer
// error in this codebase, where all construction sites control their inputs.
func (g *Graph) AddEdge(u, v int, w float64) int {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph.AddEdge: endpoint out of range: {%d,%d} with n=%d", u, v, len(g.adj)))
	}
	if u == v {
		panic(fmt.Sprintf("graph.AddEdge: self-loop at %d", u))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	g.adj[u] = appendArc(g.adj[u], Arc{To: v, ID: id})
	g.adj[v] = appendArc(g.adj[v], Arc{To: u, ID: id})
	return id
}

// appendArc appends with a first allocation of capacity 4: most graphs here
// are planar-ish (average degree < 6), so one allocation usually covers the
// vertex's whole adjacency instead of the 1→2→4 growth chain.
func appendArc(as []Arc, a Arc) []Arc {
	if as == nil {
		as = make([]Arc, 0, 4)
	}
	return append(as, a)
}

// RemoveEdge deletes edge id from the graph: both adjacency arcs are
// dropped (preserving the port order of the remaining arcs) and the edge
// slot becomes a tombstone, so every other edge keeps its stable ID — the
// invariant the shortcut layers' congestion accounting depends on. M()
// still counts the slot; iterations over the edge list must skip tombstones
// (EdgeRemoved), as Validate, Simplify, InducedSubgraph, and the weight
// aggregates do. Introduced for the churn-repair path (edge deletions under
// a live maintained shortcut).
func (g *Graph) RemoveEdge(id int) {
	if id < 0 || id >= len(g.edges) {
		panic(fmt.Sprintf("graph.RemoveEdge: edge %d out of range", id))
	}
	e := g.edges[id]
	if e.U < 0 {
		panic(fmt.Sprintf("graph.RemoveEdge: edge %d already removed", id))
	}
	g.adj[e.U] = dropArc(g.adj[e.U], id)
	g.adj[e.V] = dropArc(g.adj[e.V], id)
	g.edges[id] = Edge{U: -1, V: -1}
}

// EdgeRemoved reports whether edge id is a RemoveEdge tombstone.
func (g *Graph) EdgeRemoved(id int) bool { return g.edges[id].U < 0 }

// dropArc removes the arc with the given edge ID, preserving order.
func dropArc(as []Arc, id int) []Arc {
	for i, a := range as {
		if a.ID == id {
			return append(as[:i], as[i+1:]...)
		}
	}
	panic(fmt.Sprintf("graph: adjacency missing arc for edge %d", id))
}

// ReserveAdj ensures the adjacency list of v has capacity for at least
// extra more arcs, so a construction loop that knows its degree contribution
// up front (e.g. merging a piece into a clique-sum) pays one allocation.
// Growth is geometric so repeated reservations stay amortized-linear.
func (g *Graph) ReserveAdj(v, extra int) {
	as := g.adj[v]
	if cap(as)-len(as) >= extra {
		return
	}
	newCap := len(as) + extra
	if 2*cap(as) > newCap {
		newCap = 2 * cap(as)
	}
	ns := make([]Arc, len(as), newCap)
	copy(ns, as)
	g.adj[v] = ns
}

// ReserveAdjBatch pre-sizes the adjacency lists of vertices vs — which must
// currently be empty — to the given capacities, all sliced from one backing
// array.
func (g *Graph) ReserveAdjBatch(vs []int, caps []int32) {
	total := 0
	for _, c := range caps {
		total += int(c)
	}
	store := make([]Arc, 0, total)
	for i, v := range vs {
		if len(g.adj[v]) != 0 {
			panic(fmt.Sprintf("graph.ReserveAdjBatch: vertex %d adjacency not empty", v))
		}
		base := len(store)
		store = store[:base+int(caps[i])]
		g.adj[v] = store[base : base : base+int(caps[i])]
	}
}

// ReserveEdges ensures capacity for at least extra more edges. Growth is
// geometric so repeated reservations stay amortized-linear.
func (g *Graph) ReserveEdges(extra int) {
	if cap(g.edges)-len(g.edges) >= extra {
		return
	}
	newCap := len(g.edges) + extra
	if 2*cap(g.edges) > newCap {
		newCap = 2 * cap(g.edges)
	}
	ns := make([]Edge, len(g.edges), newCap)
	copy(ns, g.edges)
	g.edges = ns
}

// Adj returns the adjacency list of v. The returned slice must not be
// modified by the caller.
func (g *Graph) Adj(v int) []Arc { return g.adj[v] }

// Degree returns the number of incident edge-endpoints at v (parallel edges
// counted with multiplicity).
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// SetWeight replaces the weight of edge id.
func (g *Graph) SetWeight(id int, w float64) { g.edges[id].W = w }

// Other returns the endpoint of edge id that is not v. It panics if v is not
// an endpoint of the edge.
func (g *Graph) Other(id, v int) int {
	e := g.edges[id]
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph.Other: vertex %d not an endpoint of edge %d {%d,%d}", v, id, e.U, e.V))
}

// HasEdge reports whether at least one edge connects u and v.
// It scans the shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// FindEdge returns the ID of some edge between u and v, or -1 if none exists.
func (g *Graph) FindEdge(u, v int) int {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.ID
		}
	}
	return -1
}

// Clone returns a deep copy of g. Edge IDs are preserved.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		adj:   make([][]Arc, len(g.adj)),
		edges: make([]Edge, len(g.edges)),
	}
	copy(c.edges, g.edges)
	for v, as := range g.adj {
		c.adj[v] = append([]Arc(nil), as...)
	}
	return c
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		s += e.W
	}
	return s
}

// InducedSubgraph returns the subgraph induced by the vertex set keep, along
// with the mapping old->new vertex index (-1 for dropped vertices) and, for
// each new edge, the original edge ID.
func (g *Graph) InducedSubgraph(keep []int) (sub *Graph, oldToNew []int, edgeOrig []int) {
	oldToNew = make([]int, g.N())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for i, v := range keep {
		if v < 0 || v >= g.N() {
			panic(fmt.Sprintf("graph.InducedSubgraph: vertex %d out of range", v))
		}
		if oldToNew[v] != -1 {
			panic(fmt.Sprintf("graph.InducedSubgraph: duplicate vertex %d", v))
		}
		oldToNew[v] = i
	}
	// Two passes: count surviving edges and their endpoint degrees, then fill
	// pre-sized storage (a single backing array sliced per vertex), so the
	// construction performs a constant number of allocations.
	deg := make([]int32, len(keep))
	surviving := 0
	for _, e := range g.edges {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		nu, nv := oldToNew[e.U], oldToNew[e.V]
		if nu != -1 && nv != -1 {
			surviving++
			deg[nu]++
			deg[nv]++
		}
	}
	sub = &Graph{adj: make([][]Arc, len(keep)), edges: make([]Edge, 0, surviving)}
	store := make([]Arc, 2*surviving)
	pos := 0
	for v, d := range deg {
		sub.adj[v] = store[pos : pos : pos+int(d)]
		pos += int(d)
	}
	edgeOrig = make([]int, 0, surviving)
	for id, e := range g.edges {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		nu, nv := oldToNew[e.U], oldToNew[e.V]
		if nu != -1 && nv != -1 {
			eid := len(sub.edges)
			sub.edges = append(sub.edges, Edge{U: nu, V: nv, W: e.W})
			sub.adj[nu] = append(sub.adj[nu], Arc{To: nv, ID: eid})
			sub.adj[nv] = append(sub.adj[nv], Arc{To: nu, ID: eid})
			edgeOrig = append(edgeOrig, id)
		}
	}
	return sub, oldToNew, edgeOrig
}

// Simplify returns a copy of g with parallel edges merged, keeping the
// lightest edge of each parallel class. The returned slice maps each new edge
// ID to the original ID it was kept from.
func (g *Graph) Simplify() (*Graph, []int) {
	// One pass, one map lookup per edge: slot maps a canonical endpoint pair
	// to its class's index in kept, and kept[slot] is overwritten in place
	// when a lighter representative appears. The resulting order is
	// deterministic: classes appear in order of their first original edge;
	// ties within a class keep the earliest ID.
	slot := make(map[int64]int32, len(g.edges))
	kept := make([]int, 0, len(g.edges))
	n := int64(g.N())
	for id, e := range g.edges {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		k := int64(u)*n + int64(v)
		if si, ok := slot[k]; ok {
			if e.W < g.edges[kept[si]].W {
				kept[si] = id
			}
		} else {
			slot[k] = int32(len(kept))
			kept = append(kept, id)
		}
	}
	s := NewWithEdgeCapacity(g.N(), len(kept))
	for _, id := range kept {
		e := g.edges[id]
		s.AddEdge(e.U, e.V, e.W)
	}
	return s, kept
}

// ErrDisconnected is returned by operations requiring a connected graph.
var ErrDisconnected = errors.New("graph: not connected")

// Validate performs internal consistency checks (adjacency mirrors edge list,
// no self-loops). It is used by tests and generators.
func (g *Graph) Validate() error {
	deg := make([]int, g.N())
	for id, e := range g.edges {
		if e.U < 0 && e.V < 0 {
			continue // RemoveEdge tombstone
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop at %d", id, e.U)
		}
		if e.U < 0 || e.U >= g.N() || e.V < 0 || e.V >= g.N() {
			return fmt.Errorf("graph: edge %d endpoints {%d,%d} out of range", id, e.U, e.V)
		}
		deg[e.U]++
		deg[e.V]++
	}
	for v, as := range g.adj {
		if len(as) != deg[v] {
			return fmt.Errorf("graph: vertex %d adjacency length %d != degree %d", v, len(as), deg[v])
		}
		for _, a := range as {
			if a.ID < 0 || a.ID >= g.M() {
				return fmt.Errorf("graph: vertex %d has arc with bad edge ID %d", v, a.ID)
			}
			e := g.edges[a.ID]
			if !((e.U == v && e.V == a.To) || (e.V == v && e.U == a.To)) {
				return fmt.Errorf("graph: vertex %d arc to %d disagrees with edge %d {%d,%d}", v, a.To, a.ID, e.U, e.V)
			}
		}
	}
	return nil
}

// MaxWeight returns the maximum edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 {
	m := math.Inf(-1)
	any := false
	for _, e := range g.edges {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		any = true
		if e.W > m {
			m = e.W
		}
	}
	if !any {
		return 0
	}
	return m
}
