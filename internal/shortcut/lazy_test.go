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

// TestConstructPrioLazyMatchesEager: ConstructPrio builds, checks and
// measures its fixed point in one pass and fills its edge lists only when
// they are read. Its measurement must equal both the check-only pass of
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
// shortcut fills its lists; goroutines that make it at once must all get
// the same, complete lists. Other goroutines probe the shortcut meanwhile,
// reading the flooding state, which the fill reads and keeps; they must
// all get the probe's value. Under -race this is the check that the fill
// is synchronized with the readers of both, so it runs under -short too.
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
	ref := shortcut.ConstructPrio(g, tr, p, 3, prio)
	wantEcc, err := shortcut.MaxAugmentedEccUnpruned(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := cloneEdges(ref.Edges())
	s := shortcut.ConstructPrio(g, tr, p, 3, prio)
	probe := shortcut.NewEccProbe(g, tr, p)
	readers := max(4, 2*runtime.GOMAXPROCS(0))
	got := make([][][]int, readers)
	eccs := make([]int, readers)
	errs := make([]error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch i % 4 {
			case 0, 2:
				got[i] = s.Edges()
			case 1:
				eccs[i], errs[i] = probe.MaxAugmentedEcc(s)
			default:
				eccs[i], errs[i] = s.MaxAugmentedEcc()
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if i%2 == 0 {
			if !slices.EqualFunc(got[i], want, slices.Equal[[]int]) {
				t.Fatalf("reader %d of %d got %v, want %v", i, readers, got[i], want)
			}
		} else if errs[i] != nil || eccs[i] != wantEcc {
			t.Fatalf("prober %d of %d got %d, %v; want %d", i, readers, eccs[i], errs[i], wantEcc)
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
// grid at seed-7 weights over the canonical BFS tree from vertex 0, at cap
// 512, for two part families: the MST's phase-0 family of n single
// vertices, and the Borůvka decomposition's family of about √n fragments
// (the last phase with at least √n). measure is ConstructPrio plus
// Measure, all an analytic phase reads; edges also reads Edges, which
// fills the per-part lists. Both report the admitted slots Σᵥ|admitted(v)|.
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
	const cap = 512
	for _, fam := range []struct {
		name string
		p    *partition.Parts
	}{{"singletons", trace[0].Parts(g)}, {"fragments", trace[frag].Parts(g)}} {
		prio := shortcut.TreeBlockPriorities(tr, fam.p)
		slots := 0
		for _, ids := range shortcut.ConstructPrio(g, tr, fam.p, cap, prio).Edges() {
			slots += len(ids)
		}
		for _, read := range []string{"measure", "edges"} {
			b.Run(fam.name+"/"+read, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					s := shortcut.ConstructPrio(g, tr, fam.p, cap, prio)
					s.Measure()
					if read == "edges" {
						s.Edges()
					}
				}
				b.ReportMetric(float64(fam.p.NumParts()), "parts")
				b.ReportMetric(float64(slots), "slots/op")
			})
		}
	}
}
