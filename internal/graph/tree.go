package graph

import "fmt"

// Tree is a rooted spanning tree (or forest overlay) of an underlying graph.
// Parent pointers are expressed as vertex indices plus the graph edge ID used
// to reach the parent, so tree edges remain identified with graph edges.
type Tree struct {
	G          *Graph
	Root       int
	Parent     []int // -1 at root
	ParentEdge []int // graph edge ID; -1 at root
	Depth      []int
	Order      []int   // vertices in top-down (BFS) order; Order[0] == Root
	Children   [][]int // child lists
	height     int
}

// BFSTree builds the BFS spanning tree of g rooted at root. g must be
// connected and root in [0, n).
func BFSTree(g *Graph, root int) (*Tree, error) {
	if err := checkRoot("graph.BFSTree", g, root); err != nil {
		return nil, err
	}
	r := BFS(g, root)
	if len(r.Order) != g.N() {
		return nil, fmt.Errorf("graph.BFSTree: %w", ErrDisconnected)
	}
	t := &Tree{
		G:          g,
		Root:       root,
		Parent:     r.Parent,
		ParentEdge: r.ParentEdge,
		Depth:      r.Dist,
		Order:      r.Order,
		Children:   childLists(r.Parent, r.Order),
	}
	for _, v := range t.Order {
		if t.Depth[v] > t.height {
			t.height = t.Depth[v]
		}
	}
	return t, nil
}

// checkRoot rejects a root outside [0, n) before op indexes by it.
func checkRoot(op string, g *Graph, root int) error {
	if root < 0 || root >= g.N() {
		return fmt.Errorf("%s: root %d out of range [0, %d)", op, root, g.N())
	}
	return nil
}

// childLists builds per-vertex child lists from parent pointers as slices of
// one backing array, filled in the order vertices appear in order (nil means
// ascending vertex index).
func childLists(parent, order []int) [][]int {
	n := len(parent)
	deg := make([]int32, n)
	for _, p := range parent {
		if p >= 0 {
			deg[p]++
		}
	}
	children := make([][]int, n)
	store := make([]int, 0, n)
	for v := 0; v < n; v++ {
		base := len(store)
		store = store[:base+int(deg[v])]
		children[v] = store[base : base : base+int(deg[v])]
	}
	if order == nil {
		for v := 0; v < n; v++ {
			if p := parent[v]; p >= 0 {
				children[p] = append(children[p], v)
			}
		}
	} else {
		for _, v := range order {
			if p := parent[v]; p >= 0 {
				children[p] = append(children[p], v)
			}
		}
	}
	return children
}

// TreeFromParents constructs a Tree from explicit parent and parent-edge
// arrays. It validates that the arrays describe a spanning tree of g rooted
// at root.
func TreeFromParents(g *Graph, root int, parent, parentEdge []int) (*Tree, error) {
	n := g.N()
	if len(parent) != n || len(parentEdge) != n {
		return nil, fmt.Errorf("graph.TreeFromParents: array length mismatch (n=%d)", n)
	}
	if err := checkRoot("graph.TreeFromParents", g, root); err != nil {
		return nil, err
	}
	if parent[root] != -1 {
		return nil, fmt.Errorf("graph.TreeFromParents: root %d has parent %d", root, parent[root])
	}
	store := make([]int, 3*n) // Parent, ParentEdge, Depth share one allocation
	t := &Tree{
		G:          g,
		Root:       root,
		Parent:     store[0:n:n],
		ParentEdge: store[n : 2*n : 2*n],
		Depth:      store[2*n : 3*n : 3*n],
	}
	copy(t.Parent, parent)
	copy(t.ParentEdge, parentEdge)
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		p := parent[v]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("graph.TreeFromParents: vertex %d has invalid parent %d", v, p)
		}
		id := parentEdge[v]
		if id < 0 || id >= g.M() {
			return nil, fmt.Errorf("graph.TreeFromParents: vertex %d has invalid parent edge %d", v, id)
		}
		e := g.Edge(id)
		if !((e.U == v && e.V == p) || (e.V == v && e.U == p)) {
			return nil, fmt.Errorf("graph.TreeFromParents: edge %d does not join %d and parent %d", id, v, p)
		}
	}
	t.Children = childLists(t.Parent, nil)
	// Topological order from root; also detects cycles/disconnection.
	t.Order = make([]int, 0, n)
	t.Order = append(t.Order, root)
	for head := 0; head < len(t.Order); head++ {
		v := t.Order[head]
		if v != root {
			t.Depth[v] = t.Depth[parent[v]] + 1
			if t.Depth[v] > t.height {
				t.height = t.Depth[v]
			}
		}
		t.Order = append(t.Order, t.Children[v]...)
	}
	if len(t.Order) != n {
		return nil, fmt.Errorf("graph.TreeFromParents: parent pointers do not span the graph (reached %d of %d)", len(t.Order), n)
	}
	return t, nil
}

// Height returns the maximum depth of any vertex (the tree's radius from the
// root). The tree's diameter is at most twice this value.
func (t *Tree) Height() int { return t.height }

// N returns the number of vertices in the tree.
func (t *Tree) N() int { return len(t.Parent) }

// IsTreeEdge reports whether graph edge id is used by the tree.
func (t *Tree) IsTreeEdge(id int) bool {
	e := t.G.Edge(id)
	return t.ParentEdge[e.U] == id || t.ParentEdge[e.V] == id
}

// TreeEdgeIDs returns the IDs of all tree edges, one per non-root vertex.
func (t *Tree) TreeEdgeIDs() []int {
	out := make([]int, 0, t.N()-1)
	for v := 0; v < t.N(); v++ {
		if t.ParentEdge[v] != -1 {
			out = append(out, t.ParentEdge[v])
		}
	}
	return out
}

// LCA answers lowest-common-ancestor queries on a Tree in O(log n) time after
// O(n log n) preprocessing (binary lifting).
type LCA struct {
	t      *Tree
	up     [][]int // up[k][v] = 2^k-th ancestor of v, or -1
	levels int
}

// NewLCA preprocesses t for LCA queries.
func NewLCA(t *Tree) *LCA {
	n := t.N()
	levels := 1
	for (1 << levels) < n {
		levels++
	}
	l := &LCA{t: t, levels: levels}
	l.up = make([][]int, levels)
	l.up[0] = append([]int(nil), t.Parent...)
	for k := 1; k < levels; k++ {
		l.up[k] = make([]int, n)
		for v := 0; v < n; v++ {
			mid := l.up[k-1][v]
			if mid == -1 {
				l.up[k][v] = -1
			} else {
				l.up[k][v] = l.up[k-1][mid]
			}
		}
	}
	return l
}

// Ancestor returns the d-th ancestor of v, or -1 if d exceeds v's depth.
func (l *LCA) Ancestor(v, d int) int {
	if d > l.t.Depth[v] {
		return -1
	}
	for k := 0; k < l.levels && v != -1; k++ {
		if d&(1<<k) != 0 {
			v = l.up[k][v]
		}
	}
	return v
}

// Query returns the lowest common ancestor of u and v.
func (l *LCA) Query(u, v int) int {
	t := l.t
	if t.Depth[u] < t.Depth[v] {
		u, v = v, u
	}
	u = l.Ancestor(u, t.Depth[u]-t.Depth[v])
	if u == v {
		return u
	}
	for k := l.levels - 1; k >= 0; k-- {
		if l.up[k][u] != l.up[k][v] {
			u = l.up[k][u]
			v = l.up[k][v]
		}
	}
	return t.Parent[u]
}
