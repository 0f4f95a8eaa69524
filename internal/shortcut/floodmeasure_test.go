package shortcut_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// unionFindMeasure measures s's edge sets the edge-built way: a shortcut
// made with New over a copy of the edges carries no stored measurement, so
// its Measure runs the congestion count and the per-part union-find.
func unionFindMeasure(t testing.TB, s *shortcut.Shortcut) shortcut.Measurement {
	t.Helper()
	ref, err := shortcut.New(s.G, s.T, s.P, cloneEdges(s.Edges()))
	if err != nil {
		t.Fatal(err)
	}
	return ref.Measure()
}

func cloneEdges(edges [][]int) [][]int {
	out := make([][]int, len(edges))
	for i, ids := range edges {
		out[i] = slices.Clone(ids)
	}
	return out
}

func sameMeasurement(a, b shortcut.Measurement) bool {
	return a.Congestion == b.Congestion && a.MaxBlocks == b.MaxBlocks && a.TreeDiameter == b.TreeDiameter &&
		a.Quality == b.Quality && slices.Equal(a.Blocks, b.Blocks)
}

// identityRanking is the static by-ID order: part i has rank i.
func identityRanking(numParts int) []int32 {
	prio := make([]int32, numParts)
	for i := range prio {
		prio[i] = int32(i)
	}
	return prio
}

// TestFloodMeasureMatchesUnionFind: the measurement FromFloodState derives
// from the admitted lists equals the union-find measurement of the same
// edges, on every family, part family, ranking and doubling cap.
func TestFloodMeasureMatchesUnionFind(t *testing.T) {
	families := []struct {
		name  string
		build func(rng *rand.Rand) *graph.Graph
	}{
		{"grid", func(*rand.Rand) *graph.Graph { return gen.Grid(9, 11).G }},
		{"ktree", func(rng *rand.Rand) *graph.Graph { return gen.KTree(90, 3, rng).G }},
		{"erdos-renyi", func(rng *rand.Rand) *graph.Graph { return gen.ErdosRenyiConnected(90, 220, rng) }},
		{"random-tree", func(rng *rand.Rand) *graph.Graph { return gen.RandomTree(90, rng) }},
	}
	constructions := 0
	for _, fam := range families {
		for seed := int64(0); seed < 14; seed++ {
			rng := xrand.New(700 + seed)
			g := gen.DistinctWeights(gen.UniformWeights(fam.build(rng), rng))
			tr, err := graph.BFSTree(g, rng.Intn(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			voronoi, err := partition.Voronoi(g, 3+rng.Intn(24), rng)
			if err != nil {
				t.Fatal(err)
			}
			boruvka, err := partition.BoruvkaFragments(g, 1+int(seed%3))
			if err != nil {
				t.Fatal(err)
			}
			for _, pf := range []struct {
				name string
				p    *partition.Parts
			}{{"voronoi", voronoi}, {"boruvka", boruvka}} {
				p := pf.p
				np := p.NumParts()
				for k, prio := range [][]int32{identityRanking(np), shortcut.TreeBlockPriorities(tr, p)} {
					for cap := 1; ; cap *= 2 {
						c := min(cap, np)
						name := fmt.Sprintf("%s seed %d %s parts=%d blocks=%t cap=%d", fam.name, seed, pf.name, np, k == 1, c)
						s, err := shortcut.FromFloodState(g, tr, p, shortcut.ConstructPrio(g, tr, p, c, prio).FloodState(), prio)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got, want := s.Measure(), unionFindMeasure(t, s); !sameMeasurement(got, want) {
							t.Fatalf("%s: flood measurement %+v, union-find %+v", name, got, want)
						}
						constructions++
						if c >= np {
							break
						}
					}
				}
			}
		}
	}
	if constructions < 1000 {
		t.Fatalf("only %d constructions compared", constructions)
	}
}

// TestMeasureReturnsFreshBlocks: a caller may keep or modify the Blocks of
// a stored measurement without reaching the shortcut's own copy.
func TestMeasureReturnsFreshBlocks(t *testing.T) {
	g, tr, p := gridParts(t, 5, 6)
	s := shortcut.Construct(g, tr, p, 2)
	first := s.Measure()
	want := slices.Clone(first.Blocks)
	for i := range first.Blocks {
		first.Blocks[i] = -1
	}
	if got := s.Measure().Blocks; !slices.Equal(got, want) {
		t.Fatalf("blocks %v after the caller overwrote a returned copy, want %v", got, want)
	}
}

// TestFromFloodStateRejectsMalformed: a state of the wrong shape, or one
// admitting a rank that no part member supports, is an error wrapping
// ErrMalformedFloodState rather than a panic or a shortcut with duplicate
// edges or a block count the union-find would not give.
func TestFromFloodStateRejectsMalformed(t *testing.T) {
	// The path 0-1-2-3 rooted at 0, with part 0 = {3} and part 1 = {2}.
	// Under the identity ranking at cap 2 the fixed point admits [0] at 3
	// and [0 1] at 2 and at 1; the root admits nothing.
	g := gen.Path(4)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	id := identityRanking(2)
	valid := shortcut.ConstructPrio(g, tr, p, 2, id).FloodState()
	if want := [][]int32{nil, {0, 1}, {0, 1}, {0}}; !slices.EqualFunc(valid, want, slices.Equal[[]int32]) {
		t.Fatalf("fixed point %v, want %v", valid, want)
	}
	if _, err := shortcut.FromFloodState(g, tr, p, valid, id); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string // want: a phrase of the error naming the defect
		edit       func(a [][]int32) [][]int32
	}{
		{"short", "admitted lists for 4 vertices", func(a [][]int32) [][]int32 { return a[:3] }},
		{"long", "admitted lists for 4 vertices", func(a [][]int32) [][]int32 { return append(a, nil) }},
		{"rank-too-large", "outside [0, 2)", func(a [][]int32) [][]int32 { a[3] = []int32{2}; return a }},
		{"rank-negative", "outside [0, 2)", func(a [][]int32) [][]int32 { a[3] = []int32{-1}; return a }},
		{"duplicate-rank", "not strictly ascending", func(a [][]int32) [][]int32 { a[2] = []int32{0, 0, 1}; return a }},
		{"descending", "not strictly ascending", func(a [][]int32) [][]int32 { a[2] = []int32{1, 0}; return a }},
		{"unsupported-rank", "present at neither", func(a [][]int32) [][]int32 { a[3] = []int32{0, 1}; return a }},
		{"unsupported-above-eviction", "present at neither", func(a [][]int32) [][]int32 {
			a[3], a[2], a[1] = nil, []int32{1}, []int32{0, 1}
			return a
		}},
		{"ranks-at-root", "no parent edge", func(a [][]int32) [][]int32 { a[0] = []int32{0}; return a }},
	} {
		state := make([][]int32, len(valid))
		for v, l := range valid {
			state[v] = slices.Clone(l)
		}
		s, err := shortcut.FromFloodState(g, tr, p, tc.edit(state), id)
		if !errors.Is(err, shortcut.ErrMalformedFloodState) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got shortcut %v, error %v; want an error wrapping ErrMalformedFloodState that says %q",
				tc.name, s, err, tc.want)
		}
	}
}

// TestMaxAugmentedEccMatchesReference checks the probe against a BFS from
// each part's first member on the materialized augmented subgraph, over
// oblivious and flood-built shortcuts.
func TestMaxAugmentedEccMatchesReference(t *testing.T) {
	check := func(name string, s *shortcut.Shortcut) {
		t.Helper()
		want := 0
		for i := range s.P.Sets {
			ecc := referenceAugmentedEcc(s, i)
			if ecc < 0 {
				t.Fatalf("%s: part %d has a disconnected augmented subgraph", name, i)
			}
			want = max(want, ecc)
		}
		got, err := s.MaxAugmentedEcc()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: MaxAugmentedEcc %d, reference %d", name, got, want)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		s := randomDenseInstance(t, 200+seed)
		check(fmt.Sprintf("oblivious seed %d", seed), s)
		for _, cap := range []int{1, 2, s.P.NumParts()} {
			check(fmt.Sprintf("flood seed %d cap %d", seed, cap), shortcut.Construct(s.G, s.T, s.P, cap))
		}
	}
}

// referenceAugmentedEcc is the eccentricity of P.Sets[i][0] in G[Pᵢ] + Hᵢ,
// by BFS over a materialized graph, or -1 when that subgraph is
// disconnected.
func referenceAugmentedEcc(s *shortcut.Shortcut, i int) int {
	idx := map[int]int{}
	local := func(v int) int {
		if li, ok := idx[v]; ok {
			return li
		}
		idx[v] = len(idx)
		return idx[v]
	}
	type pair struct{ u, v int }
	var edges []pair
	inPart := map[int]bool{}
	for _, v := range s.P.Sets[i] {
		local(v)
		inPart[v] = true
	}
	for id := 0; id < s.G.M(); id++ {
		if e := s.G.Edge(id); inPart[e.U] && inPart[e.V] {
			edges = append(edges, pair{local(e.U), local(e.V)})
		}
	}
	for _, id := range s.Edges()[i] {
		e := s.G.Edge(id)
		edges = append(edges, pair{local(e.U), local(e.V)})
	}
	aug := graph.New(len(idx))
	for _, e := range edges {
		aug.AddEdge(e.u, e.v, 1)
	}
	r := graph.BFS(aug, idx[s.P.Sets[i][0]])
	if len(r.Order) != aug.N() {
		return -1
	}
	ecc := 0
	for _, v := range r.Order {
		ecc = max(ecc, r.Dist[v])
	}
	return ecc
}

// TestMaxAugmentedEccDisconnected: shortcut edges that never touch their
// part leave the augmented subgraph disconnected, an error wrapping
// graph.ErrDisconnected rather than an eccentricity.
func TestMaxAugmentedEccDisconnected(t *testing.T) {
	g := gen.Path(5) // edge i joins i and i+1
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{0}, {4}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := shortcut.New(g, tr, p, [][]int{{2}, nil}) // part 0 gets the edge 2-3
	if err != nil {
		t.Fatal(err)
	}
	if ecc, err := s.MaxAugmentedEcc(); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("MaxAugmentedEcc = %d, %v; want an error wrapping graph.ErrDisconnected", ecc, err)
	}
}

// TestMaxAugmentedEccAllocsFlat: the probe reuses one set of buffers for
// every part, so its allocations do not grow with the part count.
func TestMaxAugmentedEccAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := gen.Grid(32, 32).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(parts int) float64 {
		p, err := partition.Voronoi(g, parts, xrand.New(int64(parts)))
		if err != nil {
			t.Fatal(err)
		}
		s := shortcut.Construct(g, tr, p, 4)
		if _, err := s.MaxAugmentedEcc(); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := s.MaxAugmentedEcc(); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(16), allocs(256)
	if many > few || few > 8 {
		t.Fatalf("MaxAugmentedEcc allocates %.0f objects over 16 parts and %.0f over 256; want a constant of at most 8", few, many)
	}
}

// TestMeasureFloodBuiltAllocs: measuring a flood-built shortcut costs one
// allocation, the copy of its Blocks.
func TestMeasureFloodBuiltAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g, tr, p := gridParts(t, 12, 12)
	s := shortcut.Construct(g, tr, p, 3)
	if allocs := testing.AllocsPerRun(50, func() { s.Measure() }); allocs != 1 {
		t.Fatalf("Measure of a flood-built shortcut allocates %.0f objects per run; want 1 (its Blocks copy)", allocs)
	}
}

// BenchmarkMeasure prices one Measure call on the same edges two ways: the
// measurement a flood-built shortcut carries from its fixed point, and the
// union-find recount of a hand-built copy. The instance is a 160×160 grid
// with 160 Voronoi parts at the cap that admits every part everywhere.
func BenchmarkMeasure(b *testing.B) {
	g := gen.Grid(160, 160).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.Voronoi(g, 160, xrand.New(2018))
	if err != nil {
		b.Fatal(err)
	}
	flood := shortcut.Construct(g, tr, p, p.NumParts())
	hand, err := shortcut.New(g, tr, p, cloneEdges(flood.Edges()))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		s    *shortcut.Shortcut
	}{{"flood", flood}, {"union-find", hand}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.s.Measure()
			}
		})
	}
}
