package shortcut_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// randomInstance builds a random connected graph, BFS tree, Voronoi parts,
// and a random T-restricted assignment.
func randomInstance(seed int64) (*graph.Graph, *graph.Tree, *partition.Parts, [][]int) {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(60)
	g := gen.ErdosRenyiConnected(n, n+rng.Intn(2*n), rng)
	t, err := graph.BFSTree(g, rng.Intn(n))
	if err != nil {
		panic(err)
	}
	p, err := partition.Voronoi(g, 1+rng.Intn(6), rng)
	if err != nil {
		panic(err)
	}
	treeIDs := t.TreeEdgeIDs()
	edges := make([][]int, p.NumParts())
	for i := range edges {
		for _, id := range treeIDs {
			if rng.Float64() < 0.3 {
				edges[i] = append(edges[i], id)
			}
		}
	}
	return g, t, p, edges
}

// TestQuickMeasurementLaws: congestion equals the naive per-edge maximum,
// quality = b·d + c, blocks >= 1, and every part's block count is at most
// its size.
func TestQuickMeasurementLaws(t *testing.T) {
	f := func(seed int64) bool {
		g, tr, p, edges := randomInstance(seed)
		s, err := shortcut.New(g, tr, p, edges)
		if err != nil {
			return false
		}
		m := s.Measure()
		// Naive congestion.
		count := make(map[int]int)
		for _, ids := range s.Edges() {
			for _, id := range ids {
				count[id]++
			}
		}
		maxC := 0
		for _, c := range count {
			if c > maxC {
				maxC = c
			}
		}
		if m.Congestion != maxC {
			return false
		}
		if m.Quality != m.MaxBlocks*m.TreeDiameter+m.Congestion {
			return false
		}
		for i, b := range m.Blocks {
			if b < 1 || b > len(p.Sets[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMoreEdgesNeverMoreBlocks: adding shortcut edges to a part can
// only reduce (or keep) its block count.
func TestQuickMoreEdgesNeverMoreBlocks(t *testing.T) {
	f := func(seed int64) bool {
		g, tr, p, edges := randomInstance(seed)
		s1, err := shortcut.New(g, tr, p, edges)
		if err != nil {
			return false
		}
		b1 := s1.BlockCounts()
		// Add the full tree to part 0.
		edges2 := make([][]int, len(edges))
		for i := range edges {
			edges2[i] = append([]int(nil), edges[i]...)
		}
		edges2[0] = tr.TreeEdgeIDs()
		s2, err := shortcut.New(g, tr, p, edges2)
		if err != nil {
			return false
		}
		b2 := s2.BlockCounts()
		return b2[0] <= b1[0] && b2[0] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickObliviousBudgetMonotone: larger budgets never raise measured
// congestion above the budget, and the auto-search result is at least as
// good as the budget-1 result.
func TestQuickObliviousBudgetMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g, tr, p, _ := randomInstance(seed)
		one := shortcut.Oblivious(g, tr, p, 1).Measure()
		_, best := shortcut.ObliviousAuto(g, tr, p)
		return best.Quality <= one.Quality && one.Congestion <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTreewidthShortcutBlocks: on random partial k-trees the block
// bound b <= foldedWidth + 3 holds for arbitrary Voronoi part counts.
func TestQuickTreewidthShortcutBlocks(t *testing.T) {
	f := func(seed int64, kRaw, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%5
		n := 30 + rng.Intn(120)
		kt := gen.PartialKTree(n, k, 0.3, rng)
		tr, err := graph.BFSTree(kt.G, 0)
		if err != nil {
			return false
		}
		np := 1 + int(partsRaw)%12
		p, err := partition.Voronoi(kt.G, np, rng)
		if err != nil {
			return false
		}
		res, err := shortcut.FromTreewidth(kt.G, tr, p, kt.Decomp)
		if err != nil {
			return false
		}
		m := res.S.Measure()
		return m.MaxBlocks <= res.FoldedWidth+3 &&
			m.Congestion <= (res.FoldedWidth+1)*(res.FoldedHeight+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
