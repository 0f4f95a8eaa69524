package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// randomConnectedGraph builds an append-only random connected multigraph:
// a random spanning tree plus extra random edges (parallels allowed).
func randomConnectedGraph(n, extra int, rng *rand.Rand) *graph.Graph {
	g := graph.NewWithEdgeCapacity(n, n-1+extra)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, 1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n - 1)
		if v >= u {
			v++
		}
		g.AddEdge(u, v, 1+rng.Float64())
	}
	return g
}

// TestCSRRoundTrip checks the exact round-trip contract: Graph → CSR →
// Graph preserves edge IDs, weights, and port order byte-for-byte, and
// CSR → Graph → CSR is the identity.
func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 17, 200} {
		g := randomConnectedGraph(n, n/2, rng)
		c := graph.NewCSR(g)
		if err := c.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		back := c.Graph()
		if err := back.Validate(); err != nil {
			t.Fatalf("n=%d: round-tripped graph invalid: %v", n, err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("n=%d: round-trip size %d/%d, want %d/%d", n, back.N(), back.M(), g.N(), g.M())
		}
		for id := 0; id < g.M(); id++ {
			if g.Edge(id) != back.Edge(id) {
				t.Fatalf("n=%d: edge %d changed: %v -> %v", n, id, g.Edge(id), back.Edge(id))
			}
		}
		for v := 0; v < g.N(); v++ {
			if len(g.Adj(v)) == 0 && len(back.Adj(v)) == 0 {
				continue // nil vs empty backing slice
			}
			if !reflect.DeepEqual(g.Adj(v), back.Adj(v)) {
				t.Fatalf("n=%d: port order at vertex %d changed: %v -> %v", n, v, g.Adj(v), back.Adj(v))
			}
		}
		again := graph.NewCSR(back)
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("n=%d: CSR -> Graph -> CSR not the identity", n)
		}
	}
}

// TestCSRDiameterMatchesGraph checks the CSR double-sweep diameter
// estimate against the Graph-side one, value for value.
func TestCSRDiameterMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 40, 300} {
		g := randomConnectedGraph(n, n/2, rng)
		if got, want := graph.NewCSR(g).DiameterApprox(), graph.DiameterApprox(g); got != want {
			t.Fatalf("n=%d: DiameterApprox: CSR %d, Graph %d", n, got, want)
		}
	}
}

// TestCSRMSTMatchesKruskal checks that Kruskal, which runs CSR.MST on a
// snapshot, hands back CSR.MST's edge IDs and weight unchanged.
func TestCSRMSTMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(250, 400, rng)
	c := graph.NewCSR(g)
	wantIDs, wantW := graph.Kruskal(g)
	gotIDs, gotW := c.MST()
	if len(gotIDs) != len(wantIDs) || gotW != wantW {
		t.Fatalf("MST: got %d edges weight %v, want %d edges weight %v", len(gotIDs), gotW, len(wantIDs), wantW)
	}
	for i := range wantIDs {
		if int(gotIDs[i]) != wantIDs[i] {
			t.Fatalf("MST edge %d: got ID %d, want %d", i, gotIDs[i], wantIDs[i])
		}
	}
}

// TestCSRDisconnected checks the disconnected sentinels.
func TestCSRDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	c := graph.NewCSR(g)
	if d := c.DiameterApprox(); d != -1 {
		t.Fatalf("DiameterApprox on disconnected graph: %d, want -1", d)
	}
	ids, _ := c.MST()
	if len(ids) != 2 {
		t.Fatalf("spanning forest has %d edges, want 2", len(ids))
	}
}
