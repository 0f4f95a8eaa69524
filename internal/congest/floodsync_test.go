package congest_test

import (
	"errors"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// floodSyncFamilies is the equivalence corpus: a long-diameter grid, the
// hub-skewed wheel, and a randomized k-tree.
func floodSyncFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"grid9x9": gen.GridCSR(9, 9).Graph(),
		"wheel65": gen.WheelCSR(65).Graph(),
		"ktree":   gen.KTree(80, 3, xrand.New(7)).G,
		"chain":   gen.WheelChainCSR(12, 7).Graph(),
	}
}

// TestLeaderElectSyncMatchesBlocking pins the election to its fixed point,
// the minimum vertex ID, and checks that the round count runs out the
// diamBound+2 budget.
func TestLeaderElectSyncMatchesBlocking(t *testing.T) {
	for name, g := range floodSyncFamilies(t) {
		diamBound := 2*graph.DiameterApprox(g) + 2
		got, stats, err := congest.LeaderElectSync(g, diamBound, congest.Options{})
		if err != nil {
			t.Fatalf("%s: elect: %v", name, err)
		}
		if got != 0 {
			t.Errorf("%s: elected %d, want the minimum ID 0", name, got)
		}
		if stats.Rounds != diamBound+2 {
			t.Errorf("%s: elect ran %d rounds, want diamBound+2 = %d", name, stats.Rounds, diamBound+2)
		}
	}
}

// TestDistributedBFSSyncCanonical pins the round-driven BFS to the
// sequential canonical fixed point (lowest-port parents) on every family,
// and checks the early-exit property: the run ends near ecc(root), not at
// the diameter bound.
func TestDistributedBFSSyncCanonical(t *testing.T) {
	for name, g := range floodSyncFamilies(t) {
		diamBound := 2*graph.DiameterApprox(g) + 2
		wantP, wantPE, err := congest.CanonicalBFSParents(g, 0)
		if err != nil {
			t.Fatalf("%s: canonical parents: %v", name, err)
		}
		p, pe, stats, err := congest.DistributedBFSSync(g, 0, diamBound, congest.Options{})
		if err != nil {
			t.Fatalf("%s: sync BFS: %v", name, err)
		}
		for v := range p {
			if p[v] != wantP[v] || pe[v] != wantPE[v] {
				t.Fatalf("%s: node %d: sync parent %d/edge %d, canonical %d/%d", name, v, p[v], pe[v], wantP[v], wantPE[v])
			}
		}
		if stats.Rounds > diamBound+3 {
			t.Errorf("%s: sync BFS ran %d rounds, bound %d", name, stats.Rounds, diamBound+3)
		}
	}
}

// TestFloodSyncBoundTooSmall checks both protocols surface IncompleteError
// (not a wrong fixed point) when the diameter bound cannot cover the graph.
func TestFloodSyncBoundTooSmall(t *testing.T) {
	g := gen.GridCSR(1, 30).Graph() // a path: diameter 29
	if _, _, err := congest.LeaderElectSync(g, 3, congest.Options{}); err == nil {
		t.Error("leader election with diamBound 3 on a 30-path converged")
	}
	if _, _, _, err := congest.DistributedBFSSync(g, 0, 3, congest.Options{}); err == nil {
		t.Error("BFS with diamBound 3 on a 30-path converged")
	}
}

// Regression: a BFS flood with a diameter bound below the true
// eccentricity once returned a partial tree (unreached nodes with parent
// -1) and a nil error — silent success on an incomplete flood. It must
// surface ErrIncomplete instead.
func TestDistributedBFSUnderestimatedDiamBound(t *testing.T) {
	g := gen.Path(64) // eccentricity of vertex 0 is 63
	parent, parentEdge, _, err := congest.DistributedBFSSync(g, 0, 4, congest.Options{})
	if err == nil {
		t.Fatalf("want error for diamBound 4 on a 64-path, got parent=%v", parent[:8])
	}
	if !errors.Is(err, congest.ErrIncomplete) {
		t.Fatalf("want ErrIncomplete, got %v", err)
	}
	if parent != nil || parentEdge != nil {
		t.Fatalf("partial results leaked alongside the error")
	}
}

// Regression: leader election on an empty network once panicked indexing
// the vote of node 0; it must return an error.
func TestLeaderElectEmptyNetwork(t *testing.T) {
	_, _, err := congest.LeaderElectSync(graph.New(0), 4, congest.Options{})
	if err == nil {
		t.Fatal("want error for empty network")
	}
}

// A tight-but-sufficient diameter bound still succeeds and matches the
// sequential BFS depths (guards the fix against over-strictness).
func TestDistributedBFSExactDiamBound(t *testing.T) {
	g := gen.Path(32)
	parent, _, _, err := congest.DistributedBFSSync(g, 0, 31, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.BFS(g, 0)
	for v := 1; v < g.N(); v++ {
		if ref.Dist[v] != ref.Dist[parent[v]]+1 {
			t.Fatalf("vertex %d: parent %d not one level up", v, parent[v])
		}
	}
}

// Regression: a non-positive diameter bound once fell through to the
// flood loops — BFS ran a zero-round flood and reported every node missed
// (a confusing ErrIncomplete, or silent success on a single vertex), and
// the election's unanimous self-votes masqueraded as an election on a
// single vertex. Both must reject diamBound <= 0 up front with an explicit
// validation error, not ErrIncomplete.
func TestRejectNonPositiveDiamBound(t *testing.T) {
	g := gen.Path(8)
	single := gen.Path(1)
	for _, diamBound := range []int{0, -1, -100} {
		if _, _, _, err := congest.DistributedBFSSync(g, 0, diamBound, congest.Options{}); err == nil {
			t.Fatalf("DistributedBFSSync accepted diamBound %d", diamBound)
		} else if errors.Is(err, congest.ErrIncomplete) {
			t.Fatalf("DistributedBFSSync diamBound %d: want a validation error, got ErrIncomplete: %v", diamBound, err)
		}
		if _, _, _, err := congest.DistributedBFSSync(single, 0, diamBound, congest.Options{}); err == nil {
			t.Fatalf("DistributedBFSSync on a single vertex accepted diamBound %d", diamBound)
		}
		if _, _, err := congest.LeaderElectSync(g, diamBound, congest.Options{}); err == nil {
			t.Fatalf("LeaderElectSync accepted diamBound %d", diamBound)
		}
		if leader, _, err := congest.LeaderElectSync(single, diamBound, congest.Options{}); err == nil {
			t.Fatalf("LeaderElectSync on a single vertex accepted diamBound %d (leader %d)", diamBound, leader)
		}
	}
	// Positive bounds still work, including the degenerate single vertex.
	if leader, _, err := congest.LeaderElectSync(single, 1, congest.Options{}); err != nil || leader != 0 {
		t.Fatalf("LeaderElectSync(single, 1) = %d, %v", leader, err)
	}
	if _, _, _, err := congest.DistributedBFSSync(single, 0, 1, congest.Options{}); err != nil {
		t.Fatalf("DistributedBFSSync(single, 1): %v", err)
	}
}
