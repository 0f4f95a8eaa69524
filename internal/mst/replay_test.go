package mst_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// TestShortcutBoruvkaChurnedGraph runs the MST on a graph with a RemoveEdge
// tombstone in its edge list: both modes must return Kruskal's tree of the
// live edges (Kruskal itself refuses tombstones, so it runs on the
// simplified copy and its IDs are mapped back).
func TestShortcutBoruvkaChurnedGraph(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(6, 6).G, xrand.New(3)))
	g.RemoveEdge(7)
	s, kept := g.Simplify()
	want, _ := graph.Kruskal(s)
	for i, id := range want {
		want[i] = kept[id]
	}
	slices.Sort(want)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, simulate := range []bool{false, true} {
		rs, err := mst.ShortcutBoruvkaOpts(g, mst.EmptyProvider(g, tr), mst.Options{Simulate: simulate})
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		if !slices.Equal(rs.EdgeIDs, want) {
			t.Fatalf("simulate=%v: edges %v, want %v", simulate, rs.EdgeIDs, want)
		}
		if len(rs.EdgeIDs) != 35 || rs.Weight != 44.56248341835079 {
			t.Fatalf("simulate=%v: %d edges of weight %v, want 35 of 44.56248341835079", simulate, len(rs.EdgeIDs), rs.Weight)
		}
	}
}

// TestProviderSeesEachFragmentFamilyOnce pins the carried-shortcut
// contract: the provider runs once per fragment family — call i sees the
// fragments after i Borůvka phases, and the shortcut built for a phase's
// merged fragments is reused by the next phase — so there is one call per
// phase, in both modes.
func TestProviderSeesEachFragmentFamilyOnce(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(12, 12).G, rand.New(rand.NewSource(12))))
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var phases []int
	for _, simulate := range []bool{false, true} {
		var calls [][][]int
		record := func(p *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
			calls = append(calls, p.Sets)
			return mst.EmptyProvider(g, tr)(p)
		}
		rs, err := mst.ShortcutBoruvkaOpts(g, record, mst.Options{Simulate: simulate})
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		if len(calls) != rs.Phases {
			t.Fatalf("simulate=%v: %d provider calls for %d phases", simulate, len(calls), rs.Phases)
		}
		for i, sets := range calls {
			want, err := partition.BoruvkaFragments(g, i)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(sets, want.Sets, slices.Equal) {
				t.Fatalf("simulate=%v: call %d saw %d parts, not the fragments after %d phases (%d parts)",
					simulate, i, len(sets), i, want.NumParts())
			}
		}
		phases = append(phases, rs.Phases)
	}
	if phases[0] != phases[1] {
		t.Fatalf("analytic run took %d phases, simulated %d", phases[0], phases[1])
	}
}

// BenchmarkShortcutBoruvka measures the MST layer at the sizes of the
// benchmark's pipeline workloads: analytic on the 160×160 grid at cap 64,
// and message-level on the 20-bag, 31-rim wheel chain at cap 8, both over
// the flooding provider and the elected BFS tree.
func BenchmarkShortcutBoruvka(b *testing.B) {
	cases := []struct {
		name     string
		build    func() *graph.CSR
		cap      int
		simulate bool
	}{
		{"analytic", func() *graph.CSR { return gen.GridCSR(160, 160) }, 64, false},
		{"simulate", func() *graph.CSR { return gen.WheelChainCSR(20, 31) }, 8, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(c.build(), xrand.New(7))).Graph()
			setup, err := pipeline.SelfSetup(g, false)
			if err != nil {
				b.Fatal(err)
			}
			provider := mst.FloodProvider(g, setup.Tree, c.cap, c.simulate)
			b.ReportAllocs()
			var rs *mst.RunStats
			for b.Loop() {
				rs, err = mst.ShortcutBoruvkaOpts(g, provider, mst.Options{Simulate: c.simulate})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rs.Phases), "phases")
			b.ReportMetric(float64(rs.CommRounds), "rounds_sim")
			b.ReportMetric(float64(rs.ChargedRounds), "rounds_chg")
		})
	}
}
