package graph

import (
	"math/rand"
	"sort"
)

// IsForest reports whether g is acyclic, i.e. K3-minor-free.
func IsForest(g *Graph) bool {
	uf := NewUnionFind(g.N())
	for _, e := range g.Edges() {
		if !uf.Union(e.U, e.V) {
			return false
		}
	}
	return true
}

// IsSeriesParallelReducible reports whether g is K4-minor-free, i.e. has
// treewidth at most 2, by exhaustively applying the classical reductions:
// remove isolated and degree-1 vertices, merge parallel edges, and suppress
// degree-2 vertices. A graph reduces to the empty graph if and only if it has
// no K4 minor. This is an exact decision procedure.
func IsSeriesParallelReducible(g *Graph) bool {
	// Work on a mutable adjacency-set representation (simple graph view:
	// parallel edges collapse, which does not affect K4 minors).
	n := g.N()
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[int]bool)
	}
	for _, e := range g.Edges() {
		if e.U != e.V {
			adj[e.U][e.V] = true
			adj[e.V][e.U] = true
		}
	}
	alive := n
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		queue = append(queue, v)
	}
	dead := make([]bool, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if dead[v] {
			continue
		}
		switch len(adj[v]) {
		case 0:
			dead[v] = true
			alive--
		case 1:
			var u int
			for w := range adj[v] {
				u = w
			}
			delete(adj[u], v)
			adj[v] = map[int]bool{}
			dead[v] = true
			alive--
			queue = append(queue, u)
		case 2:
			var nb [2]int
			i := 0
			for w := range adj[v] {
				nb[i] = w
				i++
			}
			a, b := nb[0], nb[1]
			delete(adj[a], v)
			delete(adj[b], v)
			adj[v] = map[int]bool{}
			dead[v] = true
			alive--
			// Suppress: connect a-b (parallel edges merge automatically).
			adj[a][b] = true
			adj[b][a] = true
			queue = append(queue, a, b)
		}
	}
	return alive == 0
}

// HasCliqueMinorWitness searches for a K_h minor using randomized contraction:
// it repeatedly contracts random edges down to h supernodes and checks for
// pairwise adjacency. It is one-sided: a true result is a certified witness
// (the returned branch sets are disjoint connected subsets that are pairwise
// adjacent); false means no minor was found within the given tries, not that
// none exists. Intended for tests on small graphs.
func HasCliqueMinorWitness(g *Graph, h, tries int, rng *rand.Rand) (found bool, branchSets [][]int) {
	if g.N() < h {
		return false, nil
	}
	for attempt := 0; attempt < tries; attempt++ {
		sets := tryCliqueMinor(g, h, rng)
		if sets != nil {
			return true, sets
		}
	}
	return false, nil
}

func tryCliqueMinor(g *Graph, h int, rng *rand.Rand) [][]int {
	// Union-find over vertices; contract random edges until h groups remain.
	uf := NewUnionFind(g.N())
	order := rng.Perm(g.M())
	groups := g.N()
	for _, id := range order {
		if groups <= h {
			break
		}
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			groups--
		}
	}
	if groups != h {
		return nil
	}
	// Check pairwise adjacency between groups.
	repIdx := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		r := uf.Find(v)
		if _, ok := repIdx[r]; !ok {
			repIdx[r] = len(repIdx)
		}
	}
	seen := make([][]bool, h)
	for i := range seen {
		seen[i] = make([]bool, h)
	}
	pairs := 0
	for _, e := range g.Edges() {
		a, b := repIdx[uf.Find(e.U)], repIdx[uf.Find(e.V)]
		if a != b && !seen[a][b] {
			seen[a][b], seen[b][a] = true, true
			pairs++
		}
	}
	if pairs != h*(h-1)/2 {
		return nil
	}
	sets := make([][]int, h)
	for v := 0; v < g.N(); v++ {
		i := repIdx[uf.Find(v)]
		sets[i] = append(sets[i], v)
	}
	for i := range sets {
		sort.Ints(sets[i])
	}
	return sets
}

// VerifyCliqueMinor checks that branchSets is a valid K_h minor model in g:
// sets are non-empty, disjoint, each induces a connected subgraph, and every
// pair of sets is joined by at least one edge.
func VerifyCliqueMinor(g *Graph, branchSets [][]int) bool {
	seen := make(map[int]bool)
	for _, s := range branchSets {
		if len(s) == 0 {
			return false
		}
		for _, v := range s {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		if !ConnectedSubset(g, s) {
			return false
		}
	}
	idx := make(map[int]int)
	for i, s := range branchSets {
		for _, v := range s {
			idx[v] = i
		}
	}
	h := len(branchSets)
	adj := make([][]bool, h)
	for i := range adj {
		adj[i] = make([]bool, h)
	}
	for _, e := range g.Edges() {
		iu, uok := idx[e.U]
		iv, vok := idx[e.V]
		if uok && vok && iu != iv {
			adj[iu][iv], adj[iv][iu] = true, true
		}
	}
	for i := 0; i < h; i++ {
		for j := i + 1; j < h; j++ {
			if !adj[i][j] {
				return false
			}
		}
	}
	return true
}

// PlanarDensityOK reports whether g satisfies the planar edge bound
// m <= 3n - 6 (for n >= 3) after merging parallel edges. Violation certifies
// non-planarity; satisfaction is necessary but not sufficient.
func PlanarDensityOK(g *Graph) bool {
	s, _ := g.Simplify()
	n, m := s.N(), s.M()
	if n < 3 {
		return m <= n-1 || m <= 1
	}
	return m <= 3*n-6
}
