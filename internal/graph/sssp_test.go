package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refBellmanFord runs synchronous (Jacobi) Bellman–Ford and records, per
// vertex, the first round at which it reached its final distance.
func refBellmanFord(g *Graph, src int) (dist []float64, settled []int) {
	n := g.N()
	dist = make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	next := make([]float64, n)
	settled = make([]int, n)
	for round := 1; round <= n; round++ {
		copy(next, dist)
		for id := 0; id < g.M(); id++ {
			e := g.Edge(id)
			if c := dist[e.U] + e.W; c < next[e.V] {
				next[e.V] = c
			}
			if c := dist[e.V] + e.W; c < next[e.U] {
				next[e.U] = c
			}
		}
		changed := false
		for v := range dist {
			if next[v] < dist[v] {
				dist[v] = next[v]
				settled[v] = round
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist, settled
}

// randomWeighted builds a random connected graph on n vertices with m
// edges (a random spanning tree plus random extra edges, parallels
// allowed), drawing every weight from weight.
func randomWeighted(n, m int, rng *rand.Rand, weight func(*rand.Rand) float64) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(rng.Intn(i), i, weight(rng))
	}
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, weight(rng))
		}
	}
	return g
}

// TestDijkstraMatchesBellmanFord checks distances, hop counts and parent
// edges against synchronous Bellman–Ford. Integer weights, zeros included,
// make distance ties common, which is where a heap keyed by live
// distances instead of push-time snapshots goes wrong.
func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for _, fam := range []struct {
		name   string
		trials int
		weight func(*rand.Rand) float64
	}{
		{"uniform", 200, func(rng *rand.Rand) float64 { return 0.25 + 4*rng.Float64() }},
		{"int1-20", 2000, func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(20)) }},
		{"int0-3", 2000, func(rng *rand.Rand) float64 { return float64(rng.Intn(4)) }},
	} {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < fam.trials; trial++ {
			n := 5 + rng.Intn(40)
			g := randomWeighted(n, n+rng.Intn(3*n), rng, fam.weight)
			src := rng.Intn(n)
			r, err := Dijkstra(g, src)
			if err != nil {
				t.Fatal(err)
			}
			want, settled := refBellmanFord(g, src)
			for v := 0; v < n; v++ {
				if math.Abs(r.Dist[v]-want[v]) > 1e-9 {
					t.Fatalf("%s trial %d vertex %d: dijkstra %v vs bellman-ford %v", fam.name, trial, v, r.Dist[v], want[v])
				}
				// Hops is the settle round of synchronous Bellman–Ford. Float
				// addition order can differ between the two algorithms, so
				// only check when the distances agree bit-exactly (always,
				// for integer weights).
				if r.Dist[v] == want[v] && r.Hops[v] != settled[v] {
					t.Fatalf("%s trial %d vertex %d: hops %d vs settle round %d", fam.name, trial, v, r.Hops[v], settled[v])
				}
				if v != src && r.Parent[v] != -1 {
					e := g.Edge(r.ParentEdge[v])
					if math.Abs(r.Dist[v]-(r.Dist[r.Parent[v]]+e.W)) > 1e-9 {
						t.Fatalf("%s trial %d vertex %d: parent edge does not close the distance", fam.name, trial, v)
					}
				}
			}
		}
	}
}

func TestDijkstraErrors(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, -1)
	if _, err := Dijkstra(g, 0); err == nil {
		t.Fatal("accepted negative weight")
	}
	if _, err := Dijkstra(New(2), 5); err == nil {
		t.Fatal("accepted out-of-range source")
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	r, err := Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(r.Dist[2], 1) || r.Hops[2] != -1 || r.Parent[2] != -1 {
		t.Fatalf("unreachable vertex misreported: %+v", r)
	}
	if r.Dist[1] != 2 || r.Hops[1] != 1 {
		t.Fatalf("direct neighbor misreported")
	}
}

// The relaxation oracle (congest.RelaxOracle) runs done-marking Dijkstra
// over MinDistHeap starting from an all-finite distance vector. That is only correct if heap order survives
// key decreases after insertion — i.e., if entries snapshot their key at
// Push time. A heap keyed by the live distance slice corrupts silently on
// exactly this access pattern: a stale entry's key shrinks in place, Pop
// surfaces a non-minimal vertex, it is marked done, and the improvement
// that arrives afterwards is discarded. This regression pins the scenario:
// a cycle with a heavy apex (long rim-routed shortest paths) relaxed from
// an apex-routed all-finite init, checked bit-exactly against the
// exhaustive Bellman-Ford fixed point.
func TestMinDistHeapAllFiniteInitDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		const n = 96
		g := New(n + 1)
		apex := n
		for v := 0; v < n; v++ {
			g.AddEdge(v, (v+1)%n, 1+rng.Float64())
			g.AddEdge(v, apex, float64(n)*(1+rng.Float64()))
		}
		// All-finite init mimicking a mid-pipeline phase: every vertex
		// already holds its apex-routed estimate.
		init := make([]float64, g.N())
		for v := 0; v < n; v++ {
			init[v] = g.Edge(2*v + 1).W
		}
		init[apex] = 0
		// Done-marking Dijkstra over MinDistHeap — the oracle's pattern.
		dist := append([]float64(nil), init...)
		var h MinDistHeap
		h.Reset(dist)
		for v := range dist {
			h.Push(v)
		}
		done := make([]bool, g.N())
		for h.Len() > 0 {
			v := h.Pop()
			if done[v] {
				continue
			}
			done[v] = true
			for _, a := range g.Adj(v) {
				if cand := dist[v] + g.Edge(a.ID).W; cand < dist[a.To] {
					dist[a.To] = cand
					h.Push(a.To)
				}
			}
		}
		// Exhaustive Bellman-Ford fixed point: same left-folded path sums,
		// so the comparison is bit-exact.
		want := append([]float64(nil), init...)
		for changed := true; changed; {
			changed = false
			for v := 0; v < g.N(); v++ {
				for _, a := range g.Adj(v) {
					if cand := want[v] + g.Edge(a.ID).W; cand < want[a.To] {
						want[a.To] = cand
						changed = true
					}
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			if dist[v] != want[v] {
				t.Fatalf("trial %d vertex %d: heap Dijkstra %v, Bellman-Ford fixed point %v", trial, v, dist[v], want[v])
			}
		}
	}
}
