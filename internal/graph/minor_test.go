package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	return g
}

func TestIsForest(t *testing.T) {
	if !IsForest(mustPath(t, 6)) {
		t.Fatal("path is a forest")
	}
	if IsForest(mustCycle(t, 3)) {
		t.Fatal("cycle is not a forest")
	}
	empty := New(4)
	if !IsForest(empty) {
		t.Fatal("edgeless graph is a forest")
	}
}

func TestSeriesParallelReducible(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"path", mustPath(t, 8), true},
		{"cycle", mustCycle(t, 8), true},
		{"K4", completeGraph(4), false},
		{"K5", completeGraph(5), false},
		{"theta", func() *Graph { // two vertices joined by three paths: SP
			g := New(5)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 4, 1)
			g.AddEdge(0, 2, 1)
			g.AddEdge(2, 4, 1)
			g.AddEdge(0, 3, 1)
			g.AddEdge(3, 4, 1)
			return g
		}(), true},
		{"grid3x3", mustGrid(t, 3, 3), false}, // 3x3 grid has a K4 minor
		{"grid2xN", mustGrid(t, 2, 7), true},  // ladders are series-parallel
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsSeriesParallelReducible(tc.g); got != tc.want {
				t.Fatalf("got %v want %v", got, tc.want)
			}
		})
	}
}

func TestCliqueMinorWitnessOnCompleteGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for h := 3; h <= 6; h++ {
		g := completeGraph(h + 2)
		found, sets := HasCliqueMinorWitness(g, h, 50, rng)
		if !found {
			t.Fatalf("K%d minor not found in K%d", h, h+2)
		}
		if !VerifyCliqueMinor(g, sets) {
			t.Fatalf("witness for K%d does not verify", h)
		}
	}
}

func TestCliqueMinorAbsentInTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := mustPath(t, 20)
	if found, _ := HasCliqueMinorWitness(g, 3, 200, rng); found {
		t.Fatal("found K3 minor in a path")
	}
}

func TestGridHasK4Minor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := mustGrid(t, 4, 4)
	found, sets := HasCliqueMinorWitness(g, 4, 2000, rng)
	if !found {
		t.Skip("randomized search did not find K4 in 4x4 grid (one-sided test)")
	}
	if !VerifyCliqueMinor(g, sets) {
		t.Fatal("witness does not verify")
	}
}

func TestVerifyCliqueMinorRejectsBadWitnesses(t *testing.T) {
	g := completeGraph(5)
	// Overlapping sets.
	if VerifyCliqueMinor(g, [][]int{{0, 1}, {1, 2}}) {
		t.Fatal("accepted overlapping branch sets")
	}
	// Disconnected set.
	p := mustPath(t, 5)
	if VerifyCliqueMinor(p, [][]int{{0, 4}, {2}}) {
		t.Fatal("accepted disconnected branch set")
	}
	// Missing pair adjacency.
	if VerifyCliqueMinor(p, [][]int{{0}, {2}, {4}}) {
		t.Fatal("accepted non-adjacent branch sets")
	}
	// Empty set.
	if VerifyCliqueMinor(g, [][]int{{}, {1}}) {
		t.Fatal("accepted empty branch set")
	}
}

func TestPlanarDensity(t *testing.T) {
	if !PlanarDensityOK(mustGrid(t, 5, 5)) {
		t.Fatal("grid should pass planar density")
	}
	if PlanarDensityOK(completeGraph(6)) {
		t.Fatal("K6 should fail planar density")
	}
	if !PlanarDensityOK(New(2)) {
		t.Fatal("tiny graph should pass")
	}
}

// TestOraclesSkipTombstones: each exact oracle answers on a graph whose
// first edge was deleted with RemoveEdge exactly as on the same graph
// rebuilt without that edge, rather than indexing with the tombstone's
// {-1, -1} endpoints.
func TestOraclesSkipTombstones(t *testing.T) {
	// A 4-cycle 0-1-2-3 with the chord 0-2 (edge 0 is 0-1), so the deletion
	// leaves a triangle with a pendant vertex, and the weighted K5.
	cycleChord := func() *Graph {
		g := New(4)
		for i, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}} {
			g.AddEdge(e[0], e[1], float64(i+1))
		}
		return g
	}
	k5 := func() *Graph {
		g := completeGraph(5)
		for id := 0; id < g.M(); id++ {
			g.SetWeight(id, float64(id%4+1))
		}
		return g
	}
	oracles := []struct {
		name string
		run  func(g *Graph) string
	}{
		{"GlobalMinCut", func(g *Graph) string {
			w, side, err := GlobalMinCut(g)
			return fmt.Sprint(w, side, err)
		}},
		{"EdgeConnectivity", func(g *Graph) string {
			k, err := EdgeConnectivity(g)
			return fmt.Sprint(k, err)
		}},
		{"IsForest", func(g *Graph) string { return fmt.Sprint(IsForest(g)) }},
		{"Kruskal", func(g *Graph) string {
			ids, w := Kruskal(g)
			out := fmt.Sprint(w, " ")
			for _, id := range ids {
				e := g.Edge(id)
				out += fmt.Sprintf("%d-%d ", e.U, e.V)
			}
			return out
		}},
		{"HasCliqueMinorWitness", func(g *Graph) string {
			out := ""
			for h := 3; h <= 5; h++ {
				found, sets := HasCliqueMinorWitness(g, h, 64, rand.New(rand.NewSource(int64(h))))
				out += fmt.Sprint(h, found, found && VerifyCliqueMinor(g, sets), " ")
			}
			return out
		}},
	}
	for _, gc := range []struct {
		name  string
		build func() *Graph
	}{{"cycle-chord", cycleChord}, {"k5", k5}} {
		removed := gc.build()
		removed.RemoveEdge(0)
		rebuilt := New(removed.N())
		for id := 1; id < removed.M(); id++ {
			e := removed.Edge(id)
			rebuilt.AddEdge(e.U, e.V, e.W)
		}
		for _, o := range oracles {
			if got, want := o.run(removed), o.run(rebuilt); got != want {
				t.Errorf("%s on %s with edge 0 removed: %q, rebuilt graph %q", o.name, gc.name, got, want)
			}
		}
	}
}
