package shortcut_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// TestConstructRespectsCap: the flooding construction never exceeds the
// congestion cap, at any cap.
func TestConstructRespectsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := gen.Grid(8, 8)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(e.G, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 2, 4, 8, 16} {
		s := shortcut.Construct(e.G, tr, p, cap)
		if m := s.Measure(); m.Congestion > cap {
			t.Fatalf("cap %d exceeded: congestion %d", cap, m.Congestion)
		}
	}
}

// TestConstructFixedPointSemantics pins the eviction rule on a hand-built
// instance: a path rooted at one end, three singleton parts at the far end.
// With cap 1 only the lowest part ID survives past the merge point; with
// cap 3 all three climb to the root.
func TestConstructFixedPointSemantics(t *testing.T) {
	// Star of three arms meeting at vertex 0, rooted at 0:
	// arms 0-1, 0-2, 0-3 extended by one: 1-4, 2-5, 3-6.
	g := graph.New(7)
	e01 := g.AddEdge(0, 1, 1)
	e02 := g.AddEdge(0, 2, 1)
	e03 := g.AddEdge(0, 3, 1)
	e14 := g.AddEdge(1, 4, 1)
	e25 := g.AddEdge(2, 5, 1)
	e36 := g.AddEdge(3, 6, 1)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{4}, {5}, {6}})
	if err != nil {
		t.Fatal(err)
	}
	// cap 3: every part climbs its whole arm.
	s3 := shortcut.Construct(g, tr, p, 3)
	wantAll := [][]int{{e01, e14}, {e02, e25}, {e03, e36}}
	for i, want := range wantAll {
		if len(s3.Edges()[i]) != len(want) {
			t.Fatalf("cap 3 part %d: edges %v want %v", i, s3.Edges()[i], want)
		}
	}
	// cap 1: arms are private (one part each), so each part still claims
	// both its arm edges — the cap binds per edge, not per node.
	s1 := shortcut.Construct(g, tr, p, 1)
	for i, want := range wantAll {
		if len(s1.Edges()[i]) != len(want) {
			t.Fatalf("cap 1 part %d: edges %v want %v", i, s1.Edges()[i], want)
		}
	}
	// Now merge the arms: a path 0-1-2 with parts at 3,4,5 all hanging off 2.
	h := graph.New(6)
	h01 := h.AddEdge(0, 1, 1)
	h12 := h.AddEdge(1, 2, 1)
	h23 := h.AddEdge(2, 3, 1)
	h24 := h.AddEdge(2, 4, 1)
	h25 := h.AddEdge(2, 5, 1)
	htr, err := graph.BFSTree(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := partition.New(h, [][]int{{3}, {4}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	hs := shortcut.Construct(h, htr, hp, 1)
	// All three reach vertex 2 over their private leaf edges; above 2 only
	// part 0 (lowest ID) is admitted, the rest are evicted.
	if got := hs.Edges()[0]; len(got) != 3 || got[0] != h01 || got[1] != h12 || got[2] != h23 {
		t.Fatalf("cap 1 priority part: edges %v want [%d %d %d]", got, h01, h12, h23)
	}
	if got := hs.Edges()[1]; len(got) != 1 || got[0] != h24 {
		t.Fatalf("evicted part 1: edges %v want [%d]", got, h24)
	}
	if got := hs.Edges()[2]; len(got) != 1 || got[0] != h25 {
		t.Fatalf("evicted part 2: edges %v want [%d]", got, h25)
	}
}

// TestConstructImprovesOverEmpty: on the adversarial grid-rows family the
// flooding construction must beat the empty shortcut.
func TestConstructImprovesOverEmpty(t *testing.T) {
	e := gen.Grid(10, 10)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(e.G, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	empty := shortcut.Empty(e.G, tr, p).Measure()
	auto, err := shortcut.ConstructAuto(e.G, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if auto.S == nil || auto.Cap < 1 {
		t.Fatalf("no construction returned (cap %d)", auto.Cap)
	}
	if auto.M.Quality >= empty.Quality {
		t.Fatalf("flooding quality %d no better than empty %d", auto.M.Quality, empty.Quality)
	}
}

// TestConstructAutoNoWorseThanCapOne: the cap sweep can only improve on the
// minimum cap.
func TestConstructAutoNoWorseThanCapOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := gen.ErdosRenyiConnected(60, 120, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	one := shortcut.Construct(g, tr, p, 1).Measure()
	auto, err := shortcut.ConstructAuto(g, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	if auto.M.Quality > one.Quality {
		t.Fatalf("auto quality %d worse than cap-1 quality %d", auto.M.Quality, one.Quality)
	}
}

// TestConstructAutoEmptyParts: an empty part family is an explicit error,
// not a nil shortcut masquerading as a construction (the zero-masquerade
// class again).
func TestConstructAutoEmptyParts(t *testing.T) {
	e := gen.Grid(3, 3)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(e.G, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := shortcut.ConstructAuto(e.G, tr, p); err == nil {
		t.Fatalf("empty part family returned %+v instead of an error", res)
	}
}

// TestConstructAutoGuessCount pins the tightened doubling loop: caps are
// 1, 2, 4, ... clamped to the part count, with no wasted iteration beyond
// it — 4 parts take exactly 3 guesses (1, 2, 4), 5 parts exactly 4
// (1, 2, 4, 5); the old loop ran one extra doubling past the part count.
func TestConstructAutoGuessCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := gen.Grid(6, 6)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ parts, guesses int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4},
	} {
		p, err := partition.Voronoi(e.G, tc.parts, rng)
		if err != nil {
			t.Fatal(err)
		}
		auto, err := shortcut.ConstructAuto(e.G, tr, p)
		if err != nil {
			t.Fatal(err)
		}
		if auto.Guesses != tc.guesses {
			t.Fatalf("%d parts: %d guesses, want %d", tc.parts, auto.Guesses, tc.guesses)
		}
		if auto.Cap > tc.parts {
			t.Fatalf("%d parts: winning cap %d exceeds the part count", tc.parts, auto.Cap)
		}
	}
}

// TestBlockTopsSumToBlockCounts: the per-vertex locally decidable top
// indicators decompose the block parameter exactly — per part, the number
// of vertices topping a block equals BlockCounts — across flooding
// constructions at several caps and the oblivious construction. This is
// the invariant the cap search's pipelined block-count convergecast
// streams to the root.
func TestBlockTopsSumToBlockCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 5; trial++ {
		g := gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(30+rng.Intn(30), 120, rng), rng))
		tr, err := graph.BFSTree(g, rng.Intn(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.Voronoi(g, 2+rng.Intn(6), rng)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, s *shortcut.Shortcut) {
			t.Helper()
			counts := s.BlockCounts()
			sums := make([]int, p.NumParts())
			for v, tops := range s.BlockTops() {
				for i := 1; i < len(tops); i++ {
					if tops[i] <= tops[i-1] {
						t.Fatalf("%s vertex %d: tops not sorted/distinct: %v", name, v, tops)
					}
				}
				for _, pi := range tops {
					sums[pi]++
				}
			}
			for i := range counts {
				if sums[i] != counts[i] {
					t.Fatalf("%s part %d: %d tops, BlockCounts has %d", name, i, sums[i], counts[i])
				}
			}
		}
		for _, cap := range []int{1, 2, p.NumParts()} {
			check("construct", shortcut.Construct(g, tr, p, cap))
		}
		s, _ := shortcut.ObliviousAuto(g, tr, p)
		check("oblivious", s)
		check("empty", shortcut.Empty(g, tr, p))
	}
}

// TestMergeRanksMatchesReference: MergeRanks appends to whatever dst holds
// the first limit ranks of the union of two ascending lists, each once,
// for limits from below zero to above the union's size.
func TestMergeRanksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sorted := func(k int) []int32 {
		out := make([]int32, k)
		for i, r := range rng.Perm(40)[:k] {
			out[i] = int32(r)
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		a, b, dst := sorted(rng.Intn(21)), sorted(rng.Intn(21)), sorted(rng.Intn(3))
		limit := rng.Intn(45) - 2
		union := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(a), b...))))
		want := append(slices.Clone(dst), union[:max(0, min(limit, len(union)))]...)
		if got := shortcut.MergeRanks(slices.Clone(dst), a, b, limit); !slices.Equal(got, want) {
			t.Fatalf("MergeRanks(%v, %v, %v, %d) = %v, want %v", dst, a, b, limit, got, want)
		}
	}
}
