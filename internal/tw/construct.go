package tw

import (
	"fmt"
	"sort"

	"repro/internal/embed"
	"repro/internal/graph"
)

// FromEmbeddingByCotree builds a tree decomposition of an embedded planar
// graph from a rooted spanning tree t: one bag per face, containing the
// union of the tree root-paths of the face's vertices, connected along a
// dual spanning tree (cotree). For a graph of diameter D this yields width
// O(deg(face)·D) — the classical "planar treewidth ≤ O(D)" construction used
// by the paper via Eppstein's theorem (Lemma 2's starting point).
// Coherence is closed with RepairCoherence and the result is validated.
func FromEmbeddingByCotree(e *embed.Embedding, t *graph.Tree) (*Decomposition, error) {
	if e.G.M() == 0 {
		d := &Decomposition{G: e.G, Bags: [][]int{{}}, Adj: [][]int{{}}}
		for v := 0; v < e.G.N(); v++ {
			d.Bags[0] = append(d.Bags[0], v)
		}
		d.Adj = make([][]int, 1)
		return d, nil
	}
	if g := e.Genus(); g != 0 {
		return nil, fmt.Errorf("tw: cotree construction requires a planar embedding, genus %d", g)
	}
	cotree, leftover, err := embed.TreeCotree(e, t)
	if err != nil {
		return nil, err
	}
	if len(leftover) != 0 {
		return nil, fmt.Errorf("tw: unexpected leftover edges on planar embedding")
	}
	faces, faceOf := e.Faces()
	d := &Decomposition{G: e.G, Bags: make([][]int, len(faces)), Adj: make([][]int, len(faces))}
	for fi, f := range faces {
		in := make(map[int]bool)
		for _, dart := range f {
			for v := embed.Tail(e.G, dart); v != -1; v = t.Parent[v] {
				in[v] = true
			}
		}
		for v := range in {
			d.Bags[fi] = append(d.Bags[fi], v)
		}
		sort.Ints(d.Bags[fi])
	}
	for _, id := range cotree {
		f1, f2 := faceOf[2*id], faceOf[2*id+1]
		d.Adj[f1] = append(d.Adj[f1], f2)
		d.Adj[f2] = append(d.Adj[f2], f1)
	}
	d.RepairCoherence()
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("tw: cotree construction invalid: %w", err)
	}
	return d, nil
}

// AddAttachedVertices extends a valid decomposition of a graph gFull
// restricted to its first baseN vertices into a decomposition of gFull:
// every vertex v >= baseN (vortex-internal nodes and apices, in the paper's
// usage) is added to every bag containing one of its attachment targets
// (Lemma 2's "add v to every bag that intersects P(v)"), with coherence
// repaired afterwards. attach[v-baseN] lists v's targets; a vertex with no
// targets is placed in bag 0.
//
// The decomposition d must currently be over a graph whose vertex set is a
// prefix of gFull's; the returned decomposition is over gFull.
func AddAttachedVertices(d *Decomposition, gFull *graph.Graph, baseN int, attach [][]int) (*Decomposition, error) {
	nd := &Decomposition{G: gFull, Bags: make([][]int, len(d.Bags)), Adj: make([][]int, len(d.Adj))}
	for i := range d.Bags {
		nd.Bags[i] = append([]int(nil), d.Bags[i]...)
		nd.Adj[i] = append([]int(nil), d.Adj[i]...)
	}
	if baseN+len(attach) != gFull.N() {
		return nil, fmt.Errorf("tw: attach lists cover %d vertices, graph has %d beyond base %d",
			len(attach), gFull.N()-baseN, baseN)
	}
	for i, targets := range attach {
		v := baseN + i
		placed := false
		if len(targets) > 0 {
			in := make(map[int]bool, len(targets))
			for _, u := range targets {
				in[u] = true
			}
			for bi, bag := range nd.Bags {
				for _, u := range bag {
					if in[u] {
						nd.Bags[bi] = append(nd.Bags[bi], v)
						placed = true
						break
					}
				}
			}
		}
		if !placed {
			nd.Bags[0] = append(nd.Bags[0], v)
		}
	}
	nd.RepairCoherence()
	if err := nd.Validate(); err != nil {
		return nil, fmt.Errorf("tw: vortex/apex extension invalid: %w", err)
	}
	return nd, nil
}

// FromBags builds a decomposition from explicit bags and a parent array over
// bags (parent[root] = -1), validating the result.
func FromBags(g *graph.Graph, bags [][]int, parent []int) (*Decomposition, error) {
	for i, p := range parent {
		if p != -1 && (p < 0 || p >= len(bags)) {
			return nil, fmt.Errorf("tw: bag %d has invalid parent %d", i, p)
		}
	}
	d := &Decomposition{G: g, Bags: bags, Adj: adjFromParents(parent)}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// FromBagsTrusted is FromBags without the O(n+m) validation pass, for
// generators whose bags are correct by construction (their validity is
// covered by the generator's own tests). Parent indices are still
// range-checked.
func FromBagsTrusted(g *graph.Graph, bags [][]int, parent []int) (*Decomposition, error) {
	for i, p := range parent {
		if p != -1 && (p < 0 || p >= len(bags)) {
			return nil, fmt.Errorf("tw: bag %d has invalid parent %d", i, p)
		}
	}
	return &Decomposition{G: g, Bags: bags, Adj: adjFromParents(parent)}, nil
}

// adjFromParents builds symmetric tree adjacency lists from parent pointers
// in CSR layout (one backing array).
func adjFromParents(parent []int) [][]int {
	n := len(parent)
	deg := make([]int32, n)
	for i, p := range parent {
		if p != -1 {
			deg[i]++
			deg[p]++
		}
	}
	adj := make([][]int, n)
	store := make([]int, 0, 2*n)
	for v := 0; v < n; v++ {
		base := len(store)
		store = store[:base+int(deg[v])]
		adj[v] = store[base : base : base+int(deg[v])]
	}
	for i, p := range parent {
		if p != -1 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	return adj
}
