package mst_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

func assertExactMST(t *testing.T, g *graph.Graph, rs *mst.RunStats) {
	t.Helper()
	kIDs, kW := graph.Kruskal(g)
	if len(rs.EdgeIDs) != len(kIDs) {
		t.Fatalf("MST has %d edges, want %d", len(rs.EdgeIDs), len(kIDs))
	}
	for i := range kIDs {
		if rs.EdgeIDs[i] != kIDs[i] {
			t.Fatalf("MST edge mismatch at %d: %d vs %d", i, rs.EdgeIDs[i], kIDs[i])
		}
	}
	if diff := rs.Weight - kW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("weight %v want %v", rs.Weight, kW)
	}
}

func TestShortcutBoruvkaOblivious(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.DistinctWeights(gen.UniformWeights(gen.Grid(6, 6).G, rng))},
		{"wheel", gen.DistinctWeights(gen.UniformWeights(gen.Wheel(40).G, rng))},
		{"ktree", gen.DistinctWeights(gen.UniformWeights(gen.KTree(80, 3, rng).G, rng))},
		{"random", gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(60, 150, rng), rng))},
		{"path", gen.DistinctWeights(gen.Path(30))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := graph.BFSTree(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := mst.ShortcutBoruvka(tc.g, mst.ObliviousProvider(tc.g, tr))
			if err != nil {
				t.Fatal(err)
			}
			assertExactMST(t, tc.g, rs)
			if rs.Phases < 1 || rs.CommRounds < 1 {
				t.Fatalf("degenerate stats %+v", rs)
			}
		})
	}
}

func TestShortcutBoruvkaWithOracle(t *testing.T) {
	// Oracle provider: the structure-aware almost-embeddable construction
	// on the wheel scenario.
	rng := rand.New(rand.NewSource(2))
	a := gen.CycleWithApex(48, rng)
	gen.DistinctWeights(gen.UniformWeights(a.G, rng))
	tr, err := graph.BFSTree(a.G, a.Apices[0])
	if err != nil {
		t.Fatal(err)
	}
	provider := func(p *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
		res, err := core.AlmostEmbeddableShortcut(a.G, tr, p, a)
		if err != nil {
			return nil, pipeline.Rounds{}, err
		}
		return res.S, pipeline.Rounds{Charged: res.M.Quality}, nil
	}
	rs, err := mst.ShortcutBoruvka(a.G, provider)
	if err != nil {
		t.Fatal(err)
	}
	assertExactMST(t, a.G, rs)
}

func TestEmptyProviderBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(5, 8).G, rng))
	tr, _ := graph.BFSTree(g, 0)
	rs, err := mst.ShortcutBoruvka(g, mst.EmptyProvider(g, tr))
	if err != nil {
		t.Fatal(err)
	}
	assertExactMST(t, g, rs)
	if rs.ChargedRounds != 0 {
		t.Fatalf("empty provider charged %d rounds", rs.ChargedRounds)
	}
}

func TestShortcutsBeatNoShortcutsOnWheel(t *testing.T) {
	// Adversarial weights: cheap rim, expensive spokes, so Borůvka grows
	// long rim-arc fragments whose diameter dwarfs the wheel's diameter.
	rng := rand.New(rand.NewSource(4))
	g := gen.Wheel(161).G
	hub := g.N() - 1
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if e.U == hub || e.V == hub {
			g.SetWeight(id, 100+rng.Float64())
		} else {
			g.SetWeight(id, 1+rng.Float64())
		}
	}
	gen.DistinctWeights(g)
	tr, _ := graph.BFSTree(g, hub) // root at hub
	withSc, err := mst.ShortcutBoruvka(g, mst.ObliviousProvider(g, tr))
	if err != nil {
		t.Fatal(err)
	}
	without, err := mst.ShortcutBoruvka(g, mst.EmptyProvider(g, tr))
	if err != nil {
		t.Fatal(err)
	}
	assertExactMST(t, g, withSc)
	assertExactMST(t, g, without)
	if withSc.CommRounds >= without.CommRounds {
		t.Fatalf("shortcuts did not reduce rounds: %d vs %d", withSc.CommRounds, without.CommRounds)
	}
}

func TestPipelinedMST(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.DistinctWeights(gen.UniformWeights(gen.Grid(7, 7).G, rng))},
		{"random", gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(80, 200, rng), rng))},
		{"apollonian", gen.DistinctWeights(gen.UniformWeights(gen.NewApollonian(60, rng).G, rng))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, err := mst.PipelinedMST(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			assertExactMST(t, tc.g, rs)
		})
	}
}

// TestPipelinedMSTBooksRelabel: phase B reads every vertex's merged
// fragment, so phase A must pay for teaching it. On a path whose weights
// increase along it, phase 0 merges the whole path into one fragment, and
// its name (the smallest member ID, vertex 0) needs n − 1 rounds to reach
// vertex n − 1. The run therefore costs at least the BFS tree (h + 1), the
// fragment-ID exchange (1), that relabel (n − 1) and the result broadcast
// (h + 1).
func TestPipelinedMSTBooksRelabel(t *testing.T) {
	const n = 64
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, float64(i+1))
	}
	rs, err := mst.PipelinedMST(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExactMST(t, g, rs)
	h := n - 1 // the BFS tree from vertex 0 is the path
	if want := 2*(h+1) + 1 + (n - 1); rs.CommRounds < want {
		t.Fatalf("pipelined MST booked %d rounds; the relabel alone implies at least %d", rs.CommRounds, want)
	}
}

func TestPipelinedMSTRoundScaling(t *testing.T) {
	// The pipelined baseline should scale roughly with D + sqrt(n), i.e.
	// far below n on a low-diameter graph.
	rng := rand.New(rand.NewSource(6))
	g := gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(400, 1600, rng), rng))
	rs, err := mst.PipelinedMST(g)
	if err != nil {
		t.Fatal(err)
	}
	assertExactMST(t, g, rs)
	if rs.CommRounds > g.N() {
		t.Fatalf("pipelined MST took %d rounds on n=%d", rs.CommRounds, g.N())
	}
}
