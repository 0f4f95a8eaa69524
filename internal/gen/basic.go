// Package gen provides graph generators for every workload in the paper's
// reproduction: basic families (paths, cycles, trees, random graphs),
// planar and bounded-genus families carrying combinatorial embeddings,
// k-trees carrying tree decompositions, almost-embeddable graphs carrying
// their vortex/apex structure, clique-sums carrying decomposition trees, and
// the Ω̃(√n) lower-bound family of [SHK+12].
//
// Every generator is deterministic given its *rand.Rand, and every generator
// that promises a structural property attaches a *witness* that tests verify
// (an embedding whose Euler genus is checked, a tree decomposition that is
// validated, and so on).
package gen

import (
	"math/rand"

	"repro/internal/graph"
)

// Path returns the path graph on n vertices with unit weights.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	g := Path(n)
	g.AddEdge(n-1, 0, 1)
	return g
}

// Star returns the star with one center (vertex 0) and n-1 leaves.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i, 1)
	}
	return g
}

// RandomTree returns a uniformly random recursive tree: vertex v attaches to
// a uniform earlier vertex.
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 1)
	}
	return g
}

// ErdosRenyiConnected returns a connected G(n, m)-style random graph: a
// random spanning tree plus (m - n + 1) uniformly random extra edges
// (duplicates and self-pairs skipped, so the final edge count may be
// slightly lower than m).
func ErdosRenyiConnected(n, m int, rng *rand.Rand) *graph.Graph {
	g := RandomTree(n, rng)
	type pair struct{ a, b int }
	have := make(map[pair]bool, m)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		have[pair{a, b}] = true
	}
	for g.M() < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if have[pair{a, b}] {
			// Dense corner case: bail out when nearly complete.
			if len(have) >= n*(n-1)/2 {
				break
			}
			continue
		}
		have[pair{a, b}] = true
		g.AddEdge(a, b, 1)
	}
	return g
}

// UniformWeights assigns each edge an independent uniform weight in
// [1, 2), keeping determinism through the provided rng. It mutates g and
// returns it for chaining.
func UniformWeights(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	for id := 0; id < g.M(); id++ {
		g.SetWeight(id, 1+rng.Float64())
	}
	return g
}

// DistinctWeights perturbs each edge weight by a tiny ID-dependent amount so
// that all weights are distinct while preserving the original ordering by
// more than the perturbation. It mutates g and returns it.
func DistinctWeights(g *graph.Graph) *graph.Graph {
	for id := 0; id < g.M(); id++ {
		g.SetWeight(id, g.Edge(id).W+float64(id)*1e-9)
	}
	return g
}
