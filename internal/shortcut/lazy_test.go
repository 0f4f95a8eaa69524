package shortcut_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// lazyInstance draws a small random input: a grid with one edge removed, a
// k-tree or a wheel chain, a BFS tree from a random root, and a random part
// family, Voronoi cells of which a random subset is kept, so some vertices
// belong to no part.
func lazyInstance(t *testing.T, rng *rand.Rand) (string, *graph.Graph, *graph.Tree, *partition.Parts) {
	t.Helper()
	var name string
	var g *graph.Graph
	switch rng.Intn(3) {
	case 0:
		rows, cols := 2+rng.Intn(7), 2+rng.Intn(7)
		g = gen.Grid(rows, cols).G
		id := rng.Intn(g.M())
		g.RemoveEdge(id)
		name = fmt.Sprintf("grid %dx%d without edge %d", rows, cols, id)
	case 1:
		n, k := 8+rng.Intn(50), 1+rng.Intn(4)
		g = gen.KTree(n, k, rng).G
		name = fmt.Sprintf("%d-tree n=%d", k, n)
	default:
		bags, rim := 1+rng.Intn(5), 3+rng.Intn(8)
		g = gen.WheelChainCSR(bags, rim).Graph()
		name = fmt.Sprintf("wheel chain %dx%d", bags, rim)
	}
	tr, err := graph.BFSTree(g, rng.Intn(g.N()))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cells, err := partition.Voronoi(g, 1+rng.Intn(min(g.N(), 16)), rng)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sets [][]int
	for _, set := range cells.Sets {
		if rng.Intn(4) > 0 {
			sets = append(sets, set)
		}
	}
	if len(sets) == 0 {
		sets = cells.Sets[:1]
	}
	p, err := partition.New(g, sets)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return name, g, tr, p
}

// TestConstructPrioLazyMatchesEager: ConstructPrio measures its fixed
// point at construction, in closed form or in the one pass that builds and
// checks it, and fills its edge lists only when they are read. Its
// measurement must equal both the check-only pass of
// FromFloodState over its state and the union-find recount of its own
// lists, and the lists it fills must equal the ones the FromFloodState
// shortcut fills — on random graphs, part families, every cap from 1 to
// the part count, and random rankings.
func TestConstructPrioLazyMatchesEager(t *testing.T) {
	rng := xrand.New(2024)
	constructions := 0
	for trial := 0; trial < 60; trial++ {
		name, g, tr, p := lazyInstance(t, rng)
		np := p.NumParts()
		perm := make([]int32, np)
		for i, r := range rng.Perm(np) {
			perm[i] = int32(r)
		}
		for k, prio := range [][]int32{identityRanking(np), perm} {
			for c := 1; c <= np; c++ {
				at := fmt.Sprintf("%s, %d parts, cap %d, ranked %t", name, np, c, k == 1)
				lazy := shortcut.ConstructPrio(g, tr, p, c, prio)
				checked, err := shortcut.FromFloodState(g, tr, p, lazy.FloodState(), prio)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				got := lazy.Measure() // before the lists exist
				if want := checked.Measure(); !sameMeasurement(got, want) {
					t.Fatalf("%s: one-pass measurement %+v, check-only pass %+v", at, got, want)
				}
				if want := unionFindMeasure(t, lazy); !sameMeasurement(got, want) {
					t.Fatalf("%s: one-pass measurement %+v, union-find recount %+v", at, got, want)
				}
				if !slices.EqualFunc(lazy.Edges(), checked.Edges(), slices.Equal[[]int]) {
					t.Fatalf("%s: ConstructPrio lists %v, FromFloodState lists %v", at, lazy.Edges(), checked.Edges())
				}
				constructions++
			}
		}
	}
	if constructions < 500 {
		t.Fatalf("only %d constructions compared", constructions)
	}
}

// TestEdgesConcurrentFirstRead: the first Edges call of a ConstructPrio
// shortcut fills its lists, and the first read of the flooding state of
// one measured in closed form generates that state. Goroutines that read
// a fresh shortcut at once, through Edges, FloodState, both probes and
// CapViews, must all get what a shortcut read on one goroutine gives, and
// the state must be generated once: one pass, at construction or at the
// first read. Under -race this is the check that the fill and the
// generation are synchronized with every reader, so it runs under -short
// too. Two instances: a cap below the part count, whose pass runs at
// construction, and the covering cap, measured in closed form.
func TestEdgesConcurrentFirstRead(t *testing.T) {
	g := gen.Grid(12, 12).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 20, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	prio := shortcut.TreeBlockPriorities(tr, p)
	probe := shortcut.NewEccProbe(g, tr, p)
	for _, c := range []int{3, p.NumParts()} {
		if applies := closedFormApplies(tr, p, c); applies != (c == p.NumParts()) {
			t.Fatalf("cap %d: closed form applies: %t; want it at the part count only", c, applies)
		}
		ref := shortcut.ConstructPrio(g, tr, p, c, prio)
		wantEcc, err := shortcut.MaxAugmentedEccUnpruned(ref)
		if err != nil {
			t.Fatal(err)
		}
		wantEdges, wantState := cloneEdges(ref.Edges()), cloneState(ref.FloodState())
		caps := doublingCaps(c)
		refViews, err := ref.CapViews(caps)
		if err != nil {
			t.Fatal(err)
		}
		before := shortcut.Passes()
		s := shortcut.ConstructPrio(g, tr, p, c, prio)
		readers := max(10, 2*runtime.GOMAXPROCS(0))
		edges := make([][][]int, readers)
		states := make([][][]int32, readers)
		views := make([][]*shortcut.Shortcut, readers)
		eccs := make([]int, readers)
		errs := make([]error, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch i % 5 {
				case 0:
					edges[i] = s.Edges()
				case 1:
					eccs[i], errs[i] = probe.MaxAugmentedEcc(s)
				case 2:
					states[i] = s.FloodState()
				case 3:
					eccs[i], errs[i] = s.MaxAugmentedEcc()
				default:
					views[i], errs[i] = s.CapViews(caps)
				}
			}()
		}
		close(start)
		wg.Wait()
		if ran := shortcut.Passes() - before; ran != 1 {
			t.Fatalf("cap %d: construction and %d concurrent first reads ran %d passes; want 1", c, readers, ran)
		}
		for i := range readers {
			at := fmt.Sprintf("cap %d, reader %d of %d", c, i, readers)
			switch i % 5 {
			case 0:
				if !slices.EqualFunc(edges[i], wantEdges, slices.Equal[[]int]) {
					t.Fatalf("%s: edge lists %v, want %v", at, edges[i], wantEdges)
				}
			case 1, 3:
				if errs[i] != nil || eccs[i] != wantEcc {
					t.Fatalf("%s: probe %d, %v; want %d", at, eccs[i], errs[i], wantEcc)
				}
			case 2:
				if !slices.EqualFunc(states[i], wantState, slices.Equal[[]int32]) {
					t.Fatalf("%s: state %v, want %v", at, states[i], wantState)
				}
			default:
				if errs[i] != nil {
					t.Fatalf("%s: %v", at, errs[i])
				}
				for k, v := range views[i] {
					checkSameShortcut(t, fmt.Sprintf("%s, view at cap %d", at, caps[k]), v, refViews[k], probe)
				}
			}
		}
	}
}

// sqrtFragmentPhase returns g's Borůvka trace and the index of its last
// phase that leaves at least √n fragments: the decomposition's part
// family, trace[frag].Parts(g).
func sqrtFragmentPhase(tb testing.TB, g *graph.Graph) ([]partition.BoruvkaPhase, int) {
	tb.Helper()
	trace, _, err := partition.BoruvkaTrace(g, 64)
	if err != nil {
		tb.Fatal(err)
	}
	root := 1
	for root*root < g.N() {
		root++
	}
	frag := 0
	for frag+1 < len(trace) && trace[frag+1].NumFrags >= root {
		frag++
	}
	return trace, frag
}

// BenchmarkFloodConstruct prices one flooding construction on the 160×160
// grid at seed-7 weights over the canonical BFS tree from vertex 0, for
// three part families: the MST's phase-0 family of n single vertices and
// the Borůvka decomposition's family of about √n fragments (the last phase
// with at least √n), both at cap 512, and that family again at cap = its
// part count (covering). The family has 494 parts, so cap 512 covers it
// too. measure is ConstructPrio plus Measure, all an analytic phase reads,
// and all three families are measured in closed form; edges also reads
// Edges, which fills the per-part lists and so first generates the state
// in the one flood pass. All report the admitted slots Σᵥ|admitted(v)| and
// the flood passes per op.
func BenchmarkFloodConstruct(b *testing.B) {
	g := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.GridCSR(160, 160), xrand.New(7))).Graph()
	parent, parentEdge, err := congest.CanonicalBFSParents(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := graph.TreeFromParents(g, 0, parent, parentEdge)
	if err != nil {
		b.Fatal(err)
	}
	trace, frag := sqrtFragmentPhase(b, g)
	fragments := trace[frag].Parts(g)
	for _, fam := range []struct {
		name string
		p    *partition.Parts
		cap  int
	}{{"singletons", trace[0].Parts(g), 512}, {"fragments", fragments, 512}, {"covering", fragments, fragments.NumParts()}} {
		prio := shortcut.TreeBlockPriorities(tr, fam.p)
		slots := 0
		for _, ids := range shortcut.ConstructPrio(g, tr, fam.p, fam.cap, prio).Edges() {
			slots += len(ids)
		}
		for _, read := range []string{"measure", "edges"} {
			b.Run(fam.name+"/"+read, func(b *testing.B) {
				b.ReportAllocs()
				before := shortcut.Passes()
				for b.Loop() {
					s := shortcut.ConstructPrio(g, tr, fam.p, fam.cap, prio)
					s.Measure()
					if read == "edges" {
						s.Edges()
					}
				}
				b.ReportMetric(float64(fam.p.NumParts()), "parts")
				b.ReportMetric(float64(slots), "slots/op")
				b.ReportMetric(float64(shortcut.Passes()-before)/float64(b.N), "passes/op")
			})
		}
	}
}
