package gen_test

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// TestCSRGeneratorsMatchGraphBuilders checks every CSR-direct family
// against its Graph-building counterpart: the emitted CSR must be
// byte-identical to snapshotting the Graph (same edge IDs, port order,
// weights), across the E14 pipeline families.
func TestCSRGeneratorsMatchGraphBuilders(t *testing.T) {
	cases := []struct {
		name string
		csr  *graph.CSR
		g    *graph.Graph
	}{
		{"grid6x6", gen.GridCSR(6, 6), gen.Grid(6, 6).G},
		{"grid1x9", gen.GridCSR(1, 9), gen.Grid(1, 9).G},
		{"wheel33", gen.WheelCSR(33), gen.Wheel(33).G},
	}
	for _, tc := range cases {
		if err := tc.csr.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := graph.NewCSR(tc.g)
		if !reflect.DeepEqual(tc.csr, want) {
			t.Errorf("%s: CSR-direct emission differs from Graph snapshot", tc.name)
		}
	}
}

// TestUniformWeightsCSRMatchesGraph checks the weight pipeline used by the
// scale harness: UniformWeightsCSR + DistinctWeightsCSR must produce the
// same weights, in the same edge-ID order, as the Graph-side
// UniformWeights + DistinctWeights under the same seed.
func TestUniformWeightsCSRMatchesGraph(t *testing.T) {
	c := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.GridCSR(7, 7), xrand.New(42)))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(7, 7).G, xrand.New(42)))
	for id := 0; id < g.M(); id++ {
		if got, want := c.W[id], g.Edge(id).W; got != want {
			t.Fatalf("edge %d: CSR weight %v, Graph weight %v", id, got, want)
		}
	}
}

// TestWheelChainCSR checks the chain family's shape and internal
// consistency (it has no Graph-building counterpart; the Graph view is
// the materialization itself).
func TestWheelChainCSR(t *testing.T) {
	c := gen.WheelChainCSR(5, 8)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.N() != 5*9 || c.M() != 5*16+4 {
		t.Fatalf("chain size %d/%d, want 45/84", c.N(), c.M())
	}
	if err := c.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	// Diameter grows with the chain: rim-to-rim across the hub bridges is
	// bags+1 hops (a disconnected chain would report -1).
	if d := c.DiameterApprox(); d < 5 {
		t.Fatalf("chain DiameterApprox %d, want hop-heavy (>= bags)", d)
	}
}

// TestCSROraclesMatchGraphOracles runs MST on both representations of
// each family and requires byte-identical answers — the equivalence
// contract that lets the scale pipeline validate its distributed MST
// against the CSR-side Kruskal.
func TestCSROraclesMatchGraphOracles(t *testing.T) {
	cases := []struct {
		name string
		csr  *graph.CSR
	}{
		{"grid8x8", gen.DistinctWeightsCSR(gen.GridCSR(8, 8))},
		{"wheel41", gen.DistinctWeightsCSR(gen.WheelCSR(41))},
		{"ktree", gen.DistinctWeightsCSR(graph.NewCSR(gen.KTree(50, 3, xrand.New(9)).G))},
		{"chain", gen.DistinctWeightsCSR(gen.WheelChainCSR(4, 12))},
	}
	for _, tc := range cases {
		wantIDs, wantW := graph.Kruskal(tc.csr.Graph())
		gotIDs, gotW := tc.csr.MST()
		if gotW != wantW || len(gotIDs) != len(wantIDs) {
			t.Fatalf("%s: MST weight %v (%d edges), want %v (%d edges)", tc.name, gotW, len(gotIDs), wantW, len(wantIDs))
		}
		for i := range wantIDs {
			if int(gotIDs[i]) != wantIDs[i] {
				t.Fatalf("%s: MST edge %d: ID %d, want %d", tc.name, i, gotIDs[i], wantIDs[i])
			}
		}
	}
}
