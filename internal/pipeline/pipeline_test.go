package pipeline_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
)

// TestSelfSetupModes: both modes elect the same leader (the minimum vertex
// ID), return a valid BFS tree of the graph, and book their cost in
// exactly one ledger.
func TestSelfSetupModes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(6, 7).G},
		{"wheel", gen.Wheel(33).G},
		{"er", gen.ErdosRenyiConnected(50, 120, rng)},
	} {
		var trees []*graph.Tree
		for _, simulate := range []bool{false, true} {
			s, err := pipeline.SelfSetup(tc.g, simulate)
			if err != nil {
				t.Fatalf("%s simulate=%v: %v", tc.name, simulate, err)
			}
			trees = append(trees, s.Tree)
			if s.Leader != 0 {
				t.Fatalf("%s simulate=%v: leader %d, want the minimum ID 0", tc.name, simulate, s.Leader)
			}
			if s.Tree.Root != 0 || s.Tree.N() != tc.g.N() {
				t.Fatalf("%s simulate=%v: tree root %d over %d vertices", tc.name, simulate, s.Tree.Root, s.Tree.N())
			}
			// BFS optimality: the self-built tree's depths must equal the
			// graph's true hop distances from the leader.
			ref := graph.BFS(tc.g, 0)
			for v := 0; v < tc.g.N(); v++ {
				if s.Tree.Depth[v] != ref.Dist[v] {
					t.Fatalf("%s simulate=%v: vertex %d at depth %d, BFS distance %d",
						tc.name, simulate, v, s.Tree.Depth[v], ref.Dist[v])
				}
			}
			if simulate && (s.Cost.Simulated <= 0 || s.Cost.Charged != 0) {
				t.Fatalf("%s simulate=true: cost %+v not exclusively simulated", tc.name, s.Cost)
			}
			if !simulate && (s.Cost.Charged <= 0 || s.Cost.Simulated != 0) {
				t.Fatalf("%s simulate=false: cost %+v not exclusively charged", tc.name, s.Cost)
			}
		}
		// The analytic path is the oracle of the protocol: both modes must
		// elect byte-identical trees (same lowest-port tie-breaks).
		for v := 0; v < tc.g.N(); v++ {
			if trees[0].Parent[v] != trees[1].Parent[v] || trees[0].ParentEdge[v] != trees[1].ParentEdge[v] {
				t.Fatalf("%s: modes elected different trees at vertex %d: parent %d/%d edge %d/%d",
					tc.name, v, trees[0].Parent[v], trees[1].Parent[v], trees[0].ParentEdge[v], trees[1].ParentEdge[v])
			}
		}
	}
}

// TestSelfSetupDisconnected: a disconnected network fails with a wrapped
// graph.ErrDisconnected in every mode — analytic, simulate, and under an
// adversary — rather than with a diameter-bound validation error from the
// floods.
func TestSelfSetupDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	for _, tc := range []struct {
		name     string
		simulate bool
		adv      *congest.Adversary
	}{
		{"analytic", false, nil},
		{"simulate", true, nil},
		{"adversary", true, congest.NewAdversary(congest.FaultPlan{})},
	} {
		s, err := pipeline.SelfSetupUnder(g, tc.simulate, tc.adv)
		if !errors.Is(err, graph.ErrDisconnected) {
			t.Errorf("%s: got (%v, %v), want graph.ErrDisconnected", tc.name, s, err)
		}
	}
}

// TestSetupTreeFor: the elected tree transfers onto a clone (min-cut's
// reweighted packing copies) and is rejected by an unrelated graph.
func TestSetupTreeFor(t *testing.T) {
	g := gen.Grid(5, 5).G
	s, err := pipeline.SelfSetup(g, false)
	if err != nil {
		t.Fatal(err)
	}
	h := g.Clone()
	ht, err := s.TreeFor(h)
	if err != nil {
		t.Fatal(err)
	}
	if ht.G != h {
		t.Fatal("transferred tree does not belong to the clone")
	}
	if ht.Height() != s.Tree.Height() {
		t.Fatalf("transferred height %d != original %d", ht.Height(), s.Tree.Height())
	}
	if same, err := s.TreeFor(g); err != nil || same != s.Tree {
		t.Fatalf("TreeFor on the original graph should return the elected tree itself (%v)", err)
	}
	other := gen.Path(7)
	if _, err := s.TreeFor(other); err == nil {
		t.Fatal("accepted a structurally different graph")
	}
}

// TestAutoFloodProviderLedgers: the self-sufficient provider yields a
// usable shortcut for a part family with its cost exclusively in the
// mode's ledger, and both modes hand back the identical shortcut.
func TestAutoFloodProviderLedgers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.ErdosRenyiConnected(60, 140, rng)
	p, err := partition.Voronoi(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var edges [][][]int
	for _, simulate := range []bool{false, true} {
		setup, err := pipeline.SelfSetup(g, simulate)
		if err != nil {
			t.Fatal(err)
		}
		s, cost, err := setup.Provider()(p)
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		if s == nil || s.G != g {
			t.Fatalf("simulate=%v: bad shortcut", simulate)
		}
		if simulate && (cost.Simulated <= 0 || cost.Charged != 0) {
			t.Fatalf("simulate=true: cost %+v", cost)
		}
		if !simulate && (cost.Charged <= 0 || cost.Simulated != 0) {
			t.Fatalf("simulate=false: cost %+v", cost)
		}
		edges = append(edges, s.Edges())
	}
	// The elected tree and the cap search are mode-independent, so the
	// constructed assignment must be too.
	for i := range edges[0] {
		if len(edges[0][i]) != len(edges[1][i]) {
			t.Fatalf("part %d: modes disagree on edge sets", i)
		}
		for j := range edges[0][i] {
			if edges[0][i][j] != edges[1][i][j] {
				t.Fatalf("part %d: modes disagree on edge sets", i)
			}
		}
	}
}
