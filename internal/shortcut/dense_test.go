package shortcut_test

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// referenceMeasure recomputes a shortcut's measurement with the original
// map-based bookkeeping, as an oracle for the dense scratch-arena rewrite.
func referenceMeasure(s *shortcut.Shortcut) shortcut.Measurement {
	m := shortcut.Measurement{TreeDiameter: 2 * s.T.Height()}
	if m.TreeDiameter == 0 {
		m.TreeDiameter = 1
	}
	use := make(map[int]int)
	for _, ids := range s.Edges() {
		for _, id := range ids {
			use[id]++
		}
	}
	for _, c := range use {
		if c > m.Congestion {
			m.Congestion = c
		}
	}
	m.Blocks = make([]int, s.P.NumParts())
	for i, ids := range s.Edges() {
		uf := graph.NewUnionFind(s.G.N())
		for _, id := range ids {
			e := s.G.Edge(id)
			uf.Union(e.U, e.V)
		}
		reps := make(map[int]bool)
		for _, v := range s.P.Sets[i] {
			reps[uf.Find(v)] = true
		}
		m.Blocks[i] = len(reps)
	}
	for _, b := range m.Blocks {
		if b > m.MaxBlocks {
			m.MaxBlocks = b
		}
	}
	m.Quality = m.MaxBlocks*m.TreeDiameter + m.Congestion
	return m
}

func randomDenseInstance(t *testing.T, seed int64) *shortcut.Shortcut {
	t.Helper()
	rng := xrand.New(seed)
	g := gen.ErdosRenyiConnected(40+rng.Intn(40), 120, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 4+rng.Intn(6), rng)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	return s
}

// TestMeasureMatchesMapReference is the property test for the scratch-arena
// rewrite: on seeded random graphs, Measure and BlockCounts must agree
// exactly with the straightforward map-based implementation they replaced.
func TestMeasureMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		s := randomDenseInstance(t, seed)
		got := s.Measure()
		want := referenceMeasure(s)
		if got.Congestion != want.Congestion || got.MaxBlocks != want.MaxBlocks ||
			got.TreeDiameter != want.TreeDiameter || got.Quality != want.Quality {
			t.Fatalf("seed %d: dense measurement %+v != reference %+v", seed, got, want)
		}
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("seed %d: block count lengths differ", seed)
		}
		for i := range got.Blocks {
			if got.Blocks[i] != want.Blocks[i] {
				t.Fatalf("seed %d part %d: blocks %d != reference %d", seed, i, got.Blocks[i], want.Blocks[i])
			}
		}
	}
}

// TestMeasureRepeatedIsStable re-measures the same shortcut: the pooled
// scratch arenas must not leak state between runs.
func TestMeasureRepeatedIsStable(t *testing.T) {
	s := randomDenseInstance(t, 7)
	first := s.Measure()
	for i := 0; i < 5; i++ {
		if again := s.Measure(); again.Quality != first.Quality || again.Congestion != first.Congestion || again.MaxBlocks != first.MaxBlocks {
			t.Fatalf("measurement drifted on re-run: %+v vs %+v", again, first)
		}
	}
}

// TestMeasureAllocs asserts the arena actually removed the per-measure map
// churn: a Measure call on a warmed pool allocates only its result (a
// handful of objects, versus hundreds for the map-based version).
func TestMeasureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := randomDenseInstance(t, 11)
	s.Measure() // warm the scratch pool
	allocs := testing.AllocsPerRun(50, func() { s.Measure() })
	if allocs > 10 {
		t.Fatalf("Measure allocates %.0f objects per run; want <= 10", allocs)
	}
}

// TestAugmentedDiameterMatchesReference cross-checks the dense
// AugmentedDiameter against a map-based reconstruction.
func TestAugmentedDiameterMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := randomDenseInstance(t, 100+seed)
		for i := 0; i < s.P.NumParts(); i++ {
			want := referenceAugmentedDiameter(s, i)
			got, err := s.AugmentedDiameter(i)
			if want < 0 {
				if err == nil {
					t.Fatalf("seed %d part %d: disconnected augmented subgraph accepted", seed, i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d part %d: %v", seed, i, err)
			}
			if got != want {
				t.Fatalf("seed %d part %d: augmented diameter %d != reference %d", seed, i, got, want)
			}
		}
	}
}

func referenceAugmentedDiameter(s *shortcut.Shortcut, i int) int {
	in := make(map[int]bool)
	for _, v := range s.P.Sets[i] {
		in[v] = true
	}
	for _, id := range s.Edges()[i] {
		e := s.G.Edge(id)
		in[e.U] = true
		in[e.V] = true
	}
	verts := make([]int, 0, len(in))
	for v := range in {
		verts = append(verts, v)
	}
	sort.Ints(verts)
	idx := make(map[int]int, len(verts))
	for li, v := range verts {
		idx[v] = li
	}
	aug := graph.New(len(verts))
	partIn := make(map[int]bool, len(s.P.Sets[i]))
	for _, v := range s.P.Sets[i] {
		partIn[v] = true
	}
	for id := 0; id < s.G.M(); id++ {
		e := s.G.Edge(id)
		if partIn[e.U] && partIn[e.V] {
			aug.AddEdge(idx[e.U], idx[e.V], 1)
		}
	}
	for _, id := range s.Edges()[i] {
		e := s.G.Edge(id)
		aug.AddEdge(idx[e.U], idx[e.V], 1)
	}
	return graph.Diameter(aug)
}
