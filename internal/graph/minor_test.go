package graph

import (
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
