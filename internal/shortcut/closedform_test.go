package shortcut_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// closedFormInstance draws a small random input for the closed form: a
// grid, a k-tree, a wheel, a wheel chain or the one-vertex graph, a BFS
// tree from a random root, and one of three part families: single
// vertices, Voronoi cells, or random vertex sets that need not be
// connected. In each family some vertices belong to no part.
func closedFormInstance(t *testing.T, rng *rand.Rand) (string, *graph.Graph, *graph.Tree, *partition.Parts) {
	t.Helper()
	var name string
	var g *graph.Graph
	switch rng.Intn(5) {
	case 0:
		rows, cols := 1+rng.Intn(7), 2+rng.Intn(7)
		g = gen.Grid(rows, cols).G
		name = fmt.Sprintf("grid %dx%d", rows, cols)
	case 1:
		n, k := 8+rng.Intn(40), 1+rng.Intn(4)
		g = gen.KTree(n, k, rng).G
		name = fmt.Sprintf("%d-tree n=%d", k, n)
	case 2:
		n := 4 + rng.Intn(40)
		g = gen.Wheel(n).G
		name = fmt.Sprintf("wheel n=%d", n)
	case 3:
		bags, rim := 1+rng.Intn(5), 3+rng.Intn(8)
		g = gen.WheelChainCSR(bags, rim).Graph()
		name = fmt.Sprintf("wheel chain %dx%d", bags, rim)
	default:
		g = graph.New(1)
		name = "one vertex"
	}
	tr, err := graph.BFSTree(g, rng.Intn(g.N()))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sets [][]int
	switch rng.Intn(3) {
	case 0:
		name += ", single vertices"
		for v := range g.N() {
			if rng.Intn(4) > 0 {
				sets = append(sets, []int{v})
			}
		}
	case 1:
		name += ", Voronoi cells"
		cells, err := partition.Voronoi(g, 1+rng.Intn(min(g.N(), 16)), rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, set := range cells.Sets {
			if rng.Intn(4) > 0 {
				sets = append(sets, set)
			}
		}
	default:
		name += ", random vertex sets"
		sets = make([][]int, 1+rng.Intn(min(g.N(), 12)))
		for v := range g.N() {
			if i := rng.Intn(len(sets) + 1); i < len(sets) {
				sets[i] = append(sets[i], v)
			}
		}
		sets = slices.DeleteFunc(sets, func(set []int) bool { return len(set) == 0 })
	}
	if len(sets) == 0 {
		sets = [][]int{{rng.Intn(g.N())}}
	}
	p, err := partition.NewUnchecked(g, sets)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return name, g, tr, p
}

// referenceMaxSubtreeParts is M by its definition: the most parts with a
// member in one non-root vertex's subtree, found by walking every member up
// to the root.
func referenceMaxSubtreeParts(tr *graph.Tree, p *partition.Parts) int {
	under := make([]map[int]bool, len(tr.Parent))
	most := 0
	for i, set := range p.Sets {
		for _, x := range set {
			for v := x; tr.Parent[v] != -1; v = tr.Parent[v] {
				if under[v] == nil {
					under[v] = map[int]bool{}
				}
				under[v][i] = true
				most = max(most, len(under[v]))
			}
		}
	}
	return most
}

// closedFormApplies reports whether ConstructPrio measures p at cap c in
// closed form: every part one vertex, or c at least M.
func closedFormApplies(tr *graph.Tree, p *partition.Parts, c int) bool {
	for _, set := range p.Sets {
		if len(set) != 1 {
			return c >= referenceMaxSubtreeParts(tr, p)
		}
	}
	return true
}

// TestClosedFormMatchesPass: ConstructPrio measures a family of single
// vertices at any cap, and any family at a covering cap, without a pass.
// On grids, k-trees, wheels, wheel chains and the one-vertex graph, with
// single-vertex parts, Voronoi cells and random vertex sets, under random
// rankings, at every cap from 1 to one past the part count: where the
// closed form applies, ConstructPrio and Measure must run no pass, and the
// measurement must be congestion min(cap, M) with one block per part and
// equal the union-find measurement of New over the filled edge lists;
// elsewhere they run one. Everywhere the state read afterwards must equal
// the fixed point computed from its definition.
func TestClosedFormMatchesPass(t *testing.T) {
	rng := xrand.New(29)
	pairs, closed := 0, 0
	for trial := 0; trial < 1000; trial++ {
		name, g, tr, p := closedFormInstance(t, rng)
		np := p.NumParts()
		most := referenceMaxSubtreeParts(tr, p)
		prio := make([]int32, np)
		for i, r := range rng.Perm(np) {
			prio[i] = int32(r)
		}
		for c := 1; c <= np+1; c++ {
			at := fmt.Sprintf("%s, %d parts, M %d, cap %d", name, np, most, c)
			before := shortcut.Passes()
			s := shortcut.ConstructPrio(g, tr, p, c, prio)
			m := s.Measure()
			applies := closedFormApplies(tr, p, c)
			if ran := shortcut.Passes() - before; (ran == 0) != applies {
				t.Fatalf("%s: ConstructPrio and Measure ran %d passes; closed form applies: %t", at, ran, applies)
			}
			if applies {
				closed++
				if m.Congestion != min(c, most) || m.MaxBlocks != 1 || slices.ContainsFunc(m.Blocks, func(b int) bool { return b != 1 }) {
					t.Fatalf("%s: closed form %+v; want congestion %d and one block per part", at, m, min(c, most))
				}
				if want := unionFindMeasure(t, s); !sameMeasurement(m, want) {
					t.Fatalf("%s: closed form %+v, union-find %+v", at, m, want)
				}
			}
			if got, want := s.FloodState(), referenceFloodState(tr, p, prio, c); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("%s: state %v, reference %v", at, got, want)
			}
			pairs++
		}
	}
	if closed < 5000 || pairs-closed < 1000 {
		t.Fatalf("%d (instance, cap) pairs, %d in closed form; want at least 5000 in closed form and 1000 not", pairs, closed)
	}
	t.Logf("%d (instance, cap) pairs, %d in closed form", pairs, closed)
}

// TestConstructPrioCopiesRanking: a shortcut measured in closed form
// generates its state on first read, under the ranking ConstructPrio was
// given. Writes to the caller's slice after ConstructPrio returns must not
// reach that state.
func TestConstructPrioCopiesRanking(t *testing.T) {
	g := gen.Grid(8, 8).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 9, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	np := p.NumParts()
	prio := identityRanking(np)
	want := referenceFloodState(tr, p, prio, np)
	before := shortcut.Passes()
	s := shortcut.ConstructPrio(g, tr, p, np, prio)
	if ran := shortcut.Passes() - before; ran != 0 {
		t.Fatalf("ConstructPrio at cap %d ran %d passes; want none", np, ran)
	}
	slices.Reverse(prio)
	if got := s.FloodState(); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Fatalf("state after the ranking was overwritten %v, want %v", got, want)
	}
}

// TestClosedFormPassCount replays the analytic MST's shortcut
// constructions on one grid: every Borůvka family with more than one part,
// at the cap the search picks for the decomposition's family, read through
// Measure only. A pass must run for exactly the families that are neither
// single vertices nor covering, and the cap-P construction the search
// builds must run none until its state is read, and then one.
func TestClosedFormPassCount(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(30, 30).G, xrand.New(11)))
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	trace, frag := sqrtFragmentPhase(t, g)
	decomp := trace[frag].Parts(g)
	search, err := congest.SearchCap(g, tr, decomp, congest.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[bool]int{} // by whether a pass was expected: families that ran one
	for i := range trace {
		p := trace[i].Parts(g)
		if p.NumParts() < 2 {
			continue
		}
		want := 1
		if closedFormApplies(tr, p, search.Cap) {
			want = 0
		}
		before := shortcut.Passes()
		shortcut.ConstructPrio(g, tr, p, search.Cap, shortcut.TreeBlockPriorities(tr, p)).Measure()
		if got := int(shortcut.Passes() - before); got != want {
			t.Fatalf("family %d (%d parts) at cap %d ran %d passes; want %d", i, p.NumParts(), search.Cap, got, want)
		}
		ran[want == 1]++
	}
	if ran[false] < 2 || ran[true] < 1 {
		t.Fatalf("%d families in closed form and %d with a pass; want both kinds", ran[false], ran[true])
	}
	np := decomp.NumParts()
	before := shortcut.Passes()
	s := shortcut.ConstructPrio(g, tr, decomp, np, shortcut.TreeBlockPriorities(tr, decomp))
	s.Measure()
	if got := shortcut.Passes() - before; got != 0 {
		t.Fatalf("ConstructPrio at cap P = %d and Measure ran %d passes; want none", np, got)
	}
	s.FloodState()
	s.FloodState()
	s.Edges()
	if got := shortcut.Passes() - before; got != 1 {
		t.Fatalf("reading the cap-P state ran %d passes; want 1", got)
	}
}
