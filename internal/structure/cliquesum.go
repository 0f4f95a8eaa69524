// Package structure defines the Graph Structure Theorem witness objects from
// the paper's Section 1.3.2 — k-clique-sum decomposition trees (Definition 8)
// and almost-embeddable structures (Definitions 2-5 with vortices per
// Definition 4) — together with validators that check every property the
// paper lists. Generators in internal/gen produce graphs carrying these
// witnesses; the shortcut constructions in internal/core consume them.
package structure

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CliqueSumTree is a k-clique-sum decomposition tree (Definition 8): a tree
// whose nodes are bags (subgraphs of G) such that adjacent bags intersect in
// a partial clique of at most K vertices.
type CliqueSumTree struct {
	G    *graph.Graph
	Bags []Bag
	Adj  [][]int // tree adjacency between bag indices
	K    int     // clique-sum order: |Bi ∩ Bj| <= K across tree edges
}

// Bag is one node of the decomposition: a subgraph of G given by vertex and
// edge ID lists.
type Bag struct {
	Vertices []int
	Edges    []int
}

// Validate checks all five properties of Definition 8 plus the k-bound on
// separators:
//  1. bags cover V(G);
//  2. each bag is a subgraph of G (edge endpoints inside the bag);
//  3. adjacent bags intersect in at most K vertices (the partial clique);
//  4. for every vertex, the bags containing it form a connected subtree;
//  5. every edge of G appears in some bag.
func (c *CliqueSumTree) Validate() error {
	t := len(c.Bags)
	if len(c.Adj) != t {
		return fmt.Errorf("structure: %d bags, %d adjacency rows", t, len(c.Adj))
	}
	// Tree shape.
	half := 0
	for _, ns := range c.Adj {
		half += len(ns)
	}
	if t > 0 && half != 2*(t-1) {
		return fmt.Errorf("structure: decomposition has %d half-edges, want tree with %d", half, 2*(t-1))
	}
	if t > 0 {
		seen := make([]bool, t)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range c.Adj[x] {
				if !seen[y] {
					seen[y] = true
					count++
					stack = append(stack, y)
				}
			}
		}
		if count != t {
			return fmt.Errorf("structure: decomposition tree disconnected")
		}
	}
	// inBags in CSR layout; per-bag membership tests run against an
	// epoch-stamped arena (one O(1) reset per bag) instead of per-bag maps.
	n := c.G.N()
	off := make([]int32, n+1)
	for bi := range c.Bags {
		for _, v := range c.Bags[bi].Vertices {
			if v < 0 || v >= n {
				return fmt.Errorf("structure: bag %d has invalid vertex %d", bi, v)
			}
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	inBags := make([]int32, off[n])
	fill := make([]int32, n)
	vmark := c.G.AcquireScratch()
	defer c.G.ReleaseScratch(vmark)
	for bi := range c.Bags {
		vmark.Reset()
		for _, v := range c.Bags[bi].Vertices {
			if !vmark.Visit(v) {
				return fmt.Errorf("structure: bag %d lists vertex %d twice", bi, v)
			}
			inBags[off[v]+fill[v]] = int32(bi)
			fill[v]++
		}
	}
	// (1) cover.
	for v := 0; v < n; v++ {
		if off[v] == off[v+1] {
			return fmt.Errorf("structure: vertex %d in no bag (property 1)", v)
		}
	}
	// (2) bags are subgraphs.
	edgeCovered := make([]bool, c.G.M())
	for bi, b := range c.Bags {
		vmark.Reset()
		for _, v := range b.Vertices {
			vmark.Visit(v)
		}
		for _, id := range b.Edges {
			if id < 0 || id >= c.G.M() {
				return fmt.Errorf("structure: bag %d has invalid edge %d", bi, id)
			}
			e := c.G.Edge(id)
			if !vmark.Has(e.U) || !vmark.Has(e.V) {
				return fmt.Errorf("structure: bag %d edge %d endpoint outside bag (property 2)", bi, id)
			}
			edgeCovered[id] = true
		}
	}
	// (3) separators bounded by K.
	for i := range c.Bags {
		vmark.Reset()
		for _, v := range c.Bags[i].Vertices {
			vmark.Visit(v)
		}
		for _, j := range c.Adj[i] {
			if j < i {
				continue
			}
			inter := 0
			for _, v := range c.Bags[j].Vertices {
				if vmark.Has(v) {
					inter++
				}
			}
			if inter > c.K {
				return fmt.Errorf("structure: bags %d,%d share %d > K=%d vertices (property 3)", i, j, inter, c.K)
			}
		}
	}
	// (4) coherence: slot value 0 = contains v, 1 = visited.
	bmark := c.G.AcquireScratch()
	defer c.G.ReleaseScratch(bmark)
	bmark.Grow(t)
	var stack []int
	for v := 0; v < n; v++ {
		bs := inBags[off[v]:off[v+1]]
		bmark.Reset()
		for _, b := range bs {
			bmark.Set(int(b), 0)
		}
		start := int(bs[0])
		bmark.Set(start, 1)
		stack = append(stack[:0], start)
		count := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range c.Adj[x] {
				if st, ok := bmark.Get(y); ok && st == 0 {
					bmark.Set(y, 1)
					count++
					stack = append(stack, y)
				}
			}
		}
		if count != len(bs) {
			return fmt.Errorf("structure: vertex %d bags not coherent (property 4)", v)
		}
	}
	// (5) every edge in some bag.
	for id, ok := range edgeCovered {
		if !ok {
			return fmt.Errorf("structure: edge %d in no bag (property 5)", id)
		}
	}
	return nil
}

// Separator returns the sorted vertex intersection of two adjacent bags.
func (c *CliqueSumTree) Separator(i, j int) []int {
	a, b := c.Bags[i].Vertices, c.Bags[j].Vertices
	if sort.IntsAreSorted(a) && sort.IntsAreSorted(b) {
		// The common case: bag vertex lists are built sorted, so the
		// separator is a linear merge-intersection.
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		out := make([]int, 0, n)
		x, y := 0, 0
		for x < len(a) && y < len(b) {
			switch {
			case a[x] < b[y]:
				x++
			case a[x] > b[y]:
				y++
			default:
				out = append(out, a[x])
				x++
				y++
			}
		}
		return out
	}
	in := make(map[int]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []int
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
