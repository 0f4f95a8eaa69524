// Package tw implements tree decompositions: validation, rooting,
// diameter-based constructions for embedded graphs, the vortex extension of
// the paper's Lemma 2, and the heavy-light chain folding used to compress
// decomposition trees to depth O(log² n) (paper, proof of Theorem 7).
package tw

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Decomposition is a tree decomposition of a graph: a tree whose nodes carry
// vertex bags satisfying the three standard properties (cover, edge
// containment, coherence).
type Decomposition struct {
	G    *graph.Graph
	Bags [][]int // bag vertex lists
	Adj  [][]int // tree adjacency between bag indices
}

// Width returns the decomposition width (max bag size minus one).
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// NumBags returns the number of bags.
func (d *Decomposition) NumBags() int { return len(d.Bags) }

// inBagCSR returns, for every vertex, the bags containing it, as a CSR pair
// (offsets into one backing array) built in two counting passes — no
// per-vertex slice growth. It reports the first duplicated or out-of-range
// vertex it encounters.
func (d *Decomposition) inBagCSR() (lists []int32, off []int32, err error) {
	n := d.G.N()
	off = make([]int32, n+1)
	for bi, bag := range d.Bags {
		for _, v := range bag {
			if v < 0 || v >= n {
				return nil, nil, fmt.Errorf("tw: bag %d contains invalid vertex %d", bi, v)
			}
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	buf := make([]int32, int(off[n])+n) // lists and fill share one allocation
	lists = buf[:off[n]]
	fill := buf[off[n]:]
	for bi, bag := range d.Bags {
		for _, v := range bag {
			lists[off[v]+fill[v]] = int32(bi)
			fill[v]++
		}
	}
	return lists, off, nil
}

// Validate checks that d is a valid tree decomposition of d.G:
// (i) the tree is in fact a tree, (ii) bags cover all vertices,
// (iii) every edge has both endpoints in some bag, and (iv) for each vertex
// the bags containing it form a connected subtree.
func (d *Decomposition) Validate() error {
	t := len(d.Bags)
	if len(d.Adj) != t {
		return fmt.Errorf("tw: %d bags but %d adjacency rows", t, len(d.Adj))
	}
	// Tree check: connected with t-1 edges.
	deg := 0
	for _, ns := range d.Adj {
		deg += len(ns)
	}
	if t > 0 && deg != 2*(t-1) {
		return fmt.Errorf("tw: bag tree has %d half-edges, want %d", deg, 2*(t-1))
	}
	if t > 0 {
		seen := make([]bool, t)
		stack := make([]int, 1, t)
		stack[0] = 0
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range d.Adj[x] {
				if !seen[y] {
					seen[y] = true
					count++
					stack = append(stack, y)
				}
			}
		}
		if count != t {
			return fmt.Errorf("tw: bag tree disconnected (%d of %d reachable)", count, t)
		}
	}
	// Cover: every vertex in some bag, no bag lists a vertex twice. The
	// duplicate check rides on the CSR build plus one scan per bag against an
	// epoch-stamped mark (reset is O(1) per bag). Arenas come from the
	// graph's pool, grown to cover bag indices when needed.
	marks := d.G.AcquireScratch()
	defer d.G.ReleaseScratch(marks)
	marks.Grow(t)
	seenV := d.G.AcquireScratch()
	defer d.G.ReleaseScratch(seenV)
	for bi, bag := range d.Bags {
		seenV.Reset()
		for _, v := range bag {
			if v >= 0 && v < d.G.N() && !seenV.Visit(v) {
				return fmt.Errorf("tw: bag %d lists vertex %d twice", bi, v)
			}
		}
	}
	inBag, off, err := d.inBagCSR()
	if err != nil {
		return err
	}
	for v := 0; v < d.G.N(); v++ {
		if off[v] == off[v+1] {
			return fmt.Errorf("tw: vertex %d in no bag", v)
		}
	}
	// Edge containment: the CSR lists are ascending (bags are scanned in
	// index order), so a common bag is found by a linear merge.
	for id := 0; id < d.G.M(); id++ {
		e := d.G.Edge(id)
		if firstCommonBag(inBag[off[e.U]:off[e.U+1]], inBag[off[e.V]:off[e.V+1]]) == -1 {
			return fmt.Errorf("tw: edge %d {%d,%d} contained in no bag", id, e.U, e.V)
		}
	}
	// Coherence: bags containing v induce a connected subtree.
	var stack []int
	for v := 0; v < d.G.N(); v++ {
		bs := inBag[off[v]:off[v+1]]
		marks.Reset() // slot value: 0 = contains v, 1 = visited
		for _, b := range bs {
			marks.Set(int(b), 0)
		}
		start := int(bs[0])
		stack = append(stack[:0], start)
		marks.Set(start, 1)
		count := 1
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range d.Adj[x] {
				if st, ok := marks.Get(y); ok && st == 0 {
					marks.Set(y, 1)
					count++
					stack = append(stack, y)
				}
			}
		}
		if count != len(bs) {
			return fmt.Errorf("tw: vertex %d bags not coherent (%d of %d connected)", v, count, len(bs))
		}
	}
	return nil
}

// RepairCoherence adds vertices to bags along tree paths so the coherence
// property holds, leaving cover and edge containment intact. Constructions
// that are coherent by design are unaffected; constructions derived from
// geometric arguments (cotree bags) use this as a closing step. It mutates d.
func (d *Decomposition) RepairCoherence() {
	t := len(d.Bags)
	if t == 0 {
		return
	}
	// Root the bag tree at 0 and compute parents/depths.
	parent := make([]int, t)
	depth := make([]int, t)
	order := make([]int, 0, t)
	parent[0] = -1
	stack := []int{0}
	seen := make([]bool, t)
	seen[0] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, x)
		for _, y := range d.Adj[x] {
			if !seen[y] {
				seen[y] = true
				parent[y] = x
				depth[y] = depth[x] + 1
				stack = append(stack, y)
			}
		}
	}
	inBag, off, err := d.inBagCSR()
	if err != nil {
		// Malformed input; leave it for Validate to report.
		return
	}
	// has stamps, per vertex, the bags that currently contain it (the CSR
	// lists plus any added along repair paths); reset is O(1) per vertex.
	has := d.G.AcquireScratch()
	defer d.G.ReleaseScratch(has)
	has.Grow(t)
	for v := 0; v < d.G.N(); v++ {
		bs := inBag[off[v]:off[v+1]]
		if len(bs) <= 1 {
			continue
		}
		has.Reset()
		for _, b := range bs {
			has.Visit(int(b))
		}
		// Union of pairwise tree paths from bs[0] to each other bag.
		base := int(bs[0])
		for _, b32 := range bs[1:] {
			x, y := base, int(b32)
			for x != y {
				if depth[x] < depth[y] {
					x, y = y, x
				}
				if has.Visit(x) {
					d.Bags[x] = append(d.Bags[x], v)
				}
				x = parent[x]
			}
			if has.Visit(x) {
				d.Bags[x] = append(d.Bags[x], v)
			}
		}
	}
	for i := range d.Bags {
		sort.Ints(d.Bags[i])
	}
}

// Rooted is a decomposition with a chosen root and precomputed parent,
// depth, and top-down order over bags.
type Rooted struct {
	D      *Decomposition
	Root   int
	Parent []int
	Depth  []int
	Order  []int // top-down
}

// Root roots the decomposition's bag tree at bag r.
func (d *Decomposition) Root(r int) *Rooted {
	t := len(d.Bags)
	store := make([]int, 3*t) // Parent, Depth, Order share one allocation
	rd := &Rooted{
		D:      d,
		Root:   r,
		Parent: store[0:t:t],
		Depth:  store[t : 2*t : 2*t],
		Order:  store[2*t : 2*t : 3*t],
	}
	for i := range rd.Parent {
		rd.Parent[i] = -2
	}
	rd.Parent[r] = -1
	rd.Order = append(rd.Order, r)
	for head := 0; head < len(rd.Order); head++ {
		x := rd.Order[head]
		for _, y := range d.Adj[x] {
			if rd.Parent[y] == -2 {
				rd.Parent[y] = x
				rd.Depth[y] = rd.Depth[x] + 1
				rd.Order = append(rd.Order, y)
			}
		}
	}
	return rd
}

// Height returns the maximum bag depth.
func (r *Rooted) Height() int {
	h := 0
	for _, d := range r.Depth {
		if d > h {
			h = d
		}
	}
	return h
}

// firstCommonBag returns some common element of two ascending lists, or -1.
func firstCommonBag(a, b []int32) int {
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			return int(a[x])
		}
	}
	return -1
}
