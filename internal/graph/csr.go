package graph

import (
	"fmt"
	"slices"
	"sort"
)

// CSR is an immutable compressed-sparse-row snapshot of an undirected
// multigraph: the million-node substrate. Vertex and edge IDs are int32,
// adjacency lives in two contiguous arc slabs indexed by a prefix-sum
// offset table, and weights sit in one contiguous []float64 — about 28
// bytes per edge plus 4 bytes per vertex, an order of magnitude below the
// pointer-per-vertex [][]Arc layout. Generators emit CSR directly
// (internal/gen), and the traversal/MST kernels below consume it without
// ever materializing per-vertex slices.
//
// The arc order within a vertex is ascending edge ID — exactly the port
// order AddEdge produces — so Graph() round-trips byte-identically for
// append-only graphs and the engine's port numbering is preserved.
type CSR struct {
	Off []int32 // vertex v's arcs are Dst[Off[v]:Off[v+1]]; len N()+1
	Dst []int32 // arc -> neighbor vertex; len 2*M()
	AID []int32 // arc -> edge ID; len 2*M()

	U, V []int32   // edge ID -> endpoints; len M()
	W    []float64 // edge ID -> weight; len M()
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Off) - 1 }

// M returns the number of edges.
func (c *CSR) M() int { return len(c.U) }

// Arcs returns vertex v's arc range as parallel neighbor/edge-ID slices.
// The slices alias the CSR slabs and must not be modified.
func (c *CSR) Arcs(v int32) (dst, aid []int32) {
	lo, hi := c.Off[v], c.Off[v+1]
	return c.Dst[lo:hi], c.AID[lo:hi]
}

// Bytes returns the total size of the CSR slabs in bytes — the memory
// model the README's scale section budgets against: 4(n+1) + 8·2m for the
// offset+arc slabs plus 16m for endpoints and weights ≈ 4n + 32m.
func (c *CSR) Bytes() int {
	return 4*len(c.Off) + 4*len(c.Dst) + 4*len(c.AID) + 4*len(c.U) + 4*len(c.V) + 8*len(c.W)
}

// NewCSR snapshots g into CSR form. It panics on RemoveEdge tombstones
// (snapshot a Simplify'd copy instead) and on graphs whose vertex or arc
// counts overflow int32 — both are programmer errors at construction
// sites, matching AddEdge's contract.
//
//congest:pure
func NewCSR(g *Graph) *CSR {
	n, m := g.N(), g.M()
	if int64(n) > 1<<31-2 || int64(2*m) > 1<<31-2 {
		panic(fmt.Sprintf("graph.NewCSR: %d vertices / %d edges overflow int32 arc indexing", n, m))
	}
	c := &CSR{
		Off: make([]int32, n+1),
		Dst: make([]int32, 2*m),
		AID: make([]int32, 2*m),
		U:   make([]int32, m),
		V:   make([]int32, m),
		W:   make([]float64, m),
	}
	pos := int32(0)
	for v := 0; v < n; v++ {
		c.Off[v] = pos
		for _, a := range g.adj[v] {
			c.Dst[pos] = int32(a.To)
			c.AID[pos] = int32(a.ID)
			pos++
		}
	}
	c.Off[n] = pos
	for id, e := range g.edges {
		if e.U < 0 {
			panic(fmt.Sprintf("graph.NewCSR: edge %d is a RemoveEdge tombstone; Simplify before snapshotting", id))
		}
		c.U[id], c.V[id], c.W[id] = int32(e.U), int32(e.V), e.W
	}
	return c
}

// Graph materializes the CSR back into a mutable Graph. The adjacency is
// rebuilt directly from the arc slabs (one backing array, no AddEdge
// churn), so the round-trip NewCSR(c.Graph()) reproduces c exactly —
// including port order and edge IDs.
func (c *CSR) Graph() *Graph {
	n, m := c.N(), c.M()
	g := &Graph{adj: make([][]Arc, n), edges: make([]Edge, m)}
	store := make([]Arc, len(c.Dst))
	for v := 0; v < n; v++ {
		lo, hi := c.Off[v], c.Off[v+1]
		as := store[lo:hi:hi]
		for i := range as {
			as[i] = Arc{To: int(c.Dst[lo+int32(i)]), ID: int(c.AID[lo+int32(i)])}
		}
		g.adj[v] = as
	}
	for id := 0; id < m; id++ {
		g.edges[id] = Edge{U: int(c.U[id]), V: int(c.V[id]), W: c.W[id]}
	}
	return g
}

// Validate checks internal consistency: offsets monotone and spanning the
// arc slabs, each arc mirrored by its edge record, each edge appearing on
// exactly two arcs, no self-loops.
func (c *CSR) Validate() error {
	n := c.N()
	if len(c.Dst) != len(c.AID) || len(c.Dst) != 2*c.M() {
		return fmt.Errorf("graph.CSR: %d arcs for %d edges", len(c.Dst), c.M())
	}
	if len(c.U) != len(c.V) || len(c.U) != len(c.W) {
		return fmt.Errorf("graph.CSR: edge slab lengths disagree: %d/%d/%d", len(c.U), len(c.V), len(c.W))
	}
	if c.Off[0] != 0 || c.Off[n] != int32(len(c.Dst)) {
		return fmt.Errorf("graph.CSR: offsets span [%d,%d], arcs %d", c.Off[0], c.Off[n], len(c.Dst))
	}
	seen := make([]int8, c.M())
	for v := int32(0); v < int32(n); v++ {
		if c.Off[v] > c.Off[v+1] {
			return fmt.Errorf("graph.CSR: offsets decrease at vertex %d", v)
		}
		dst, aid := c.Arcs(v)
		for i, to := range dst {
			id := aid[i]
			if id < 0 || int(id) >= c.M() {
				return fmt.Errorf("graph.CSR: vertex %d has arc with bad edge ID %d", v, id)
			}
			if to == v {
				return fmt.Errorf("graph.CSR: self-loop arc at %d (edge %d)", v, id)
			}
			if !((c.U[id] == v && c.V[id] == to) || (c.V[id] == v && c.U[id] == to)) {
				return fmt.Errorf("graph.CSR: vertex %d arc to %d disagrees with edge %d {%d,%d}", v, to, id, c.U[id], c.V[id])
			}
			seen[id]++
		}
	}
	for id, k := range seen {
		if k != 2 {
			return fmt.Errorf("graph.CSR: edge %d appears on %d arcs, want 2", id, k)
		}
	}
	return nil
}

// eccFrom runs a distance-only BFS from src into caller-provided scratch
// (dist len n, queue cap n), returning the eccentricity, the furthest
// vertex reached (ties to the lowest ID, matching graph.eccFrom), and the
// reached count.
func (c *CSR) eccFrom(src int32, dist []int32, queue []int32) (ecc int, far int32, reached int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		ecc = max(ecc, int(dv))
		dst, _ := c.Arcs(v)
		for _, to := range dst {
			if dist[to] == -1 {
				dist[to] = dv + 1
				queue = append(queue, to)
			}
		}
	}
	// The furthest level is the tail of the visit order.
	far = queue[len(queue)-1]
	for i := len(queue) - 2; i >= 0 && int(dist[queue[i]]) == ecc; i-- {
		far = min(far, queue[i])
	}
	return ecc, far, len(queue)
}

// DiameterApprox estimates the hop diameter with a double BFS sweep, in
// O(n+m) time and two n-int32 scratch arrays: the result is exact on
// trees and at least half the true diameter in general, matching
// graph.DiameterApprox value-for-value. Returns -1 if disconnected.
//
//congest:pure
func (c *CSR) DiameterApprox() int {
	n := c.N()
	if n == 0 {
		return 0
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	_, far, reached := c.eccFrom(0, dist, queue)
	if reached != n {
		return -1
	}
	ecc, _, _ := c.eccFrom(far, dist, queue)
	return ecc
}

// MST computes the minimum spanning forest by Kruskal under the canonical
// EdgeLess order (weight, ties to the lower edge ID) and returns the
// chosen IDs sorted ascending: the repository's one sequential MST kernel,
// which graph.Kruskal runs on a snapshot. The sort runs over an int32 index
// permutation — the only O(m log m) step in the scale pipeline's oracle
// check.
//
//congest:pure
func (c *CSR) MST() (ids []int32, weight float64) {
	m := c.M()
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c.W[a] != c.W[b] {
			return c.W[a] < c.W[b]
		}
		return a < b
	})
	uf := NewUnionFind(c.N())
	ids = make([]int32, 0, max(c.N()-1, 0))
	for _, id := range order {
		if uf.Union(int(c.U[id]), int(c.V[id])) {
			ids = append(ids, id)
			weight += c.W[id]
		}
	}
	slices.Sort(ids)
	return ids, weight
}
