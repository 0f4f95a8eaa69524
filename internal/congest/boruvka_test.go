package congest_test

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// decomposeCase is one decomposition input: a graph, its BFS tree from
// vertex 0 and a phase count.
type decomposeCase struct {
	name   string
	g      *graph.Graph
	phases int
}

// decomposeCases are the decomposition inputs both modes must agree on and
// whose measured rounds the analytic charge must bound: a grid, a wheel, an
// Erdős–Rényi graph, a grid with a RemoveEdge tombstone, and the hostile
// path whose fragments are far longer than the tree is deep.
func decomposeCases() []decomposeCase {
	churned := weighted(gen.Grid(8, 8).G, 37)
	churned.RemoveEdge(7)
	return []decomposeCase{
		{"grid", weighted(gen.Grid(8, 8).G, 31), 3},
		{"wheel", weighted(gen.Wheel(49).G, 32), 2},
		{"er", weighted(gen.ErdosRenyiConnected(60, 150, xrand.New(21)), 33), 4},
		{"churned-grid", churned, 3},
		{"hostile", hostilePath(256), 2},
	}
}

// decomposeBoth runs the decomposition in both modes over the BFS tree
// from vertex 0.
func decomposeBoth(t *testing.T, tc decomposeCase) (sim, ana *congest.DecomposeResult, tr *graph.Tree) {
	t.Helper()
	tr, err := graph.BFSTree(tc.g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sim, err = congest.BoruvkaDecompose(tc.g, tr, tc.phases, true); err != nil {
		t.Fatalf("%s simulate: %v", tc.name, err)
	}
	if ana, err = congest.BoruvkaDecompose(tc.g, tr, tc.phases, false); err != nil {
		t.Fatalf("%s analytic: %v", tc.name, err)
	}
	return sim, ana, tr
}

// TestBoruvkaDecomposeModesAgree: the in-network fragment decomposition
// hands both modes the identical part family (the sequential trace's fixed
// point), with each mode's rounds exclusively in its own ledger.
func TestBoruvkaDecomposeModesAgree(t *testing.T) {
	for _, tc := range decomposeCases() {
		sim, ana, _ := decomposeBoth(t, tc)
		want, err := partition.BoruvkaFragments(tc.g, tc.phases)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []*congest.DecomposeResult{sim, ana} {
			if got.Parts.NumParts() != want.NumParts() {
				t.Fatalf("%s: %d parts, sequential has %d", tc.name, got.Parts.NumParts(), want.NumParts())
			}
			for v, pi := range got.Parts.Of {
				if pi != want.Of[v] {
					t.Fatalf("%s vertex %d: part %d, sequential has %d", tc.name, v, pi, want.Of[v])
				}
			}
		}
		if sim.EffectiveRounds <= 0 || sim.ChargedRounds != 0 {
			t.Fatalf("%s simulate ledgers %d/%d not exclusively simulated", tc.name, sim.EffectiveRounds, sim.ChargedRounds)
		}
		if ana.ChargedRounds <= 0 || ana.EffectiveRounds != 0 || ana.Stats.Messages != 0 {
			t.Fatalf("%s analytic ledgers %d/%d (messages %d) not exclusively charged",
				tc.name, ana.EffectiveRounds, ana.ChargedRounds, ana.Stats.Messages)
		}
		if sim.Phases != ana.Phases {
			t.Fatalf("%s: phase counts differ: %d vs %d", tc.name, sim.Phases, ana.Phases)
		}
	}
}

// weighted assigns distinct deterministic weights (decompositions need the
// EdgeLess order to be strict for unique fragment-best edges).
func weighted(g *graph.Graph, seed int64) *graph.Graph {
	gen.DistinctWeights(gen.UniformWeights(g, xrand.New(seed)))
	return g
}

// hostilePath builds an input whose Borůvka fragments are far longer than
// the BFS tree is deep: a path on vertices 0..L−1 whose light weights
// increase along it, with every path vertex hung by a heavy edge off a
// complete binary tree (heap node j, 1 ≤ j < L, is vertex L+j−1; path
// vertex i is heap leaf L+i) whose own edges weigh in between. Phase 0
// merges the whole path into one fragment of strong diameter L − 1, while
// the tree puts every vertex within about 2·log₂ L hops of vertex 0.
func hostilePath(L int) *graph.Graph {
	g := graph.New(2*L - 1)
	for i := 0; i+1 < L; i++ {
		g.AddEdge(i, i+1, 1+float64(i)/float64(L))
	}
	vertex := func(j int) int {
		if j >= L {
			return j - L
		}
		return L + j - 1
	}
	for j := 2; j < 2*L; j++ {
		w := 10 + float64(j)/float64(2*L)
		if j >= L {
			w = 100 + float64(j)
		}
		g.AddEdge(vertex(j/2), vertex(j), w)
	}
	return g
}

// TestBoruvkaDecomposeMeasuredBound: the analytic charge bounds the rounds
// simulate mode measures on every input, and both stay within the
// worst case BoruvkaDecompose documents, p·(2n + 3) for p phases.
func TestBoruvkaDecomposeMeasuredBound(t *testing.T) {
	for _, tc := range decomposeCases() {
		sim, ana, _ := decomposeBoth(t, tc)
		if sim.EffectiveRounds > ana.ChargedRounds {
			t.Errorf("%s: measured %d rounds exceed the analytic charge %d", tc.name, sim.EffectiveRounds, ana.ChargedRounds)
		}
		if worst := sim.Phases * (2*tc.g.N() + 3); ana.ChargedRounds > worst {
			t.Errorf("%s: charge %d exceeds the worst case %d of %d phases", tc.name, ana.ChargedRounds, worst, sim.Phases)
		}
	}
}

// TestBoruvkaDecomposeHostileFragments: on the hostile path the first
// phase's fragment eccentricity far exceeds the tree height, and the
// measured floods really cross the path instead of a shortcut through the
// tree.
func TestBoruvkaDecomposeHostileFragments(t *testing.T) {
	tc := decomposeCase{"hostile", hostilePath(256), 2}
	sim, _, tr := decomposeBoth(t, tc)
	frags, err := partition.BoruvkaFragments(tc.g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ecc, err := shortcut.Empty(tc.g, tr, frags).MaxAugmentedEcc()
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Height()
	if ecc != 255 || ecc < 8*h {
		t.Fatalf("fragment eccentricity %d with tree height %d: the instance is not hostile", ecc, h)
	}
	if sim.EffectiveRounds < 2*ecc {
		t.Fatalf("measured %d rounds, but two floods must each cross a path of %d hops", sim.EffectiveRounds, ecc)
	}
}

// TestBoruvkaDecomposeTreeIdentity: a tree of a different graph is
// rejected (the construction-layer identity contract).
func TestBoruvkaDecomposeTreeIdentity(t *testing.T) {
	g1 := weighted(gen.Grid(4, 4).G, 35)
	g2 := weighted(gen.Grid(4, 4).G, 36)
	tr, err := graph.BFSTree(g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := congest.BoruvkaDecompose(g1, tr, 2, false); err == nil {
		t.Fatal("accepted a tree of a different graph")
	}
}

// decomposePhases is the phase count the scale pipeline decomposes with:
// the most Borůvka phases (at least 1, at most 64) that still leave at
// least √n fragments.
func decomposePhases(tb testing.TB, g *graph.Graph) int {
	tb.Helper()
	target := 1
	for target*target < g.N() {
		target++
	}
	trace, final, err := partition.BoruvkaTrace(g, 64)
	if err != nil {
		tb.Fatal(err)
	}
	fragsAfter := func(p int) int {
		if p < len(trace) {
			return trace[p].NumFrags
		}
		return final.NumParts()
	}
	phases := 1
	for phases < 64 && fragsAfter(phases+1) >= target {
		phases++
	}
	return phases
}

// BenchmarkBoruvkaDecompose measures the decomposition layer on
// BenchmarkShortcutBoruvka's instances: analytic on the 160×160 grid and
// message-level on the 20-bag, 31-rim wheel chain, both at seed-7 weights
// over the elected BFS tree, at the phase count the scale pipeline probes.
func BenchmarkBoruvkaDecompose(b *testing.B) {
	for _, c := range []struct {
		name     string
		build    func() *graph.CSR
		simulate bool
	}{
		{"analytic", func() *graph.CSR { return gen.GridCSR(160, 160) }, false},
		{"simulate", func() *graph.CSR { return gen.WheelChainCSR(20, 31) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(c.build(), xrand.New(7))).Graph()
			setup, err := pipeline.SelfSetup(g, false)
			if err != nil {
				b.Fatal(err)
			}
			phases := decomposePhases(b, g)
			b.ReportAllocs()
			var res *congest.DecomposeResult
			for b.Loop() {
				if res, err = congest.BoruvkaDecompose(g, setup.Tree, phases, c.simulate); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Phases), "phases")
			b.ReportMetric(float64(res.EffectiveRounds), "rounds_sim")
			b.ReportMetric(float64(res.ChargedRounds), "rounds_chg")
			b.ReportMetric(float64(res.Stats.Messages), "messages")
		})
	}
}
