package partition_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	g := gen.Path(6)
	// Valid.
	p, err := partition.New(g, [][]int{{0, 1}, {3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 2 || p.Of[2] != -1 || p.Of[4] != 1 {
		t.Fatalf("parts wrong: %+v", p)
	}
	// Overlap rejected.
	if _, err := partition.New(g, [][]int{{0, 1}, {1, 2}}); err == nil {
		t.Fatal("accepted overlapping parts")
	}
	// Disconnected part rejected.
	if _, err := partition.New(g, [][]int{{0, 2}}); err == nil {
		t.Fatal("accepted disconnected part")
	}
	// Empty part rejected.
	if _, err := partition.New(g, [][]int{{}}); err == nil {
		t.Fatal("accepted empty part")
	}
	// Out of range rejected.
	if _, err := partition.New(g, [][]int{{99}}); err == nil {
		t.Fatal("accepted invalid vertex")
	}
}

func TestVoronoiCoversAndConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyiConnected(50, 120, rng)
		k := 1 + rng.Intn(10)
		p, err := partition.Voronoi(g, k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumParts() != k {
			t.Fatalf("parts %d want %d", p.NumParts(), k)
		}
		covered := 0
		for _, s := range p.Sets {
			covered += len(s)
		}
		if covered != g.N() {
			t.Fatalf("covered %d of %d", covered, g.N())
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVoronoiErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.Path(5)
	if _, err := partition.Voronoi(g, 0, rng); err == nil {
		t.Fatal("accepted 0 seeds")
	}
	if _, err := partition.Voronoi(g, 9, rng); err == nil {
		t.Fatal("accepted more seeds than vertices")
	}
	d := graph.New(4)
	d.AddEdge(0, 1, 1)
	if _, err := partition.Voronoi(d, 1, rng); err == nil {
		t.Fatal("accepted disconnected graph")
	}
}

func TestBoruvkaFragmentsShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(8, 8).G, rng))
	prev := g.N() + 1
	for phases := 0; phases <= 4; phases++ {
		p, err := partition.BoruvkaFragments(g, phases)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumParts() >= prev && p.NumParts() != 1 {
			t.Fatalf("fragments did not shrink: %d -> %d", prev, p.NumParts())
		}
		prev = p.NumParts()
	}
	if prev != 1 {
		t.Fatalf("expected full merge, have %d fragments", prev)
	}
}

func TestGridRowsAndRimArcs(t *testing.T) {
	e := gen.Grid(4, 6)
	p, err := partition.GridRows(e.G, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 4 || len(p.Sets[0]) != 6 {
		t.Fatalf("rows wrong")
	}
	if _, err := partition.GridRows(e.G, 3, 6); err == nil {
		t.Fatal("accepted wrong dims")
	}
	w := gen.Wheel(17)
	arcs, err := partition.RimArcs(w.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	if arcs.NumParts() != 4 {
		t.Fatalf("arcs %d", arcs.NumParts())
	}
	total := 0
	for _, s := range arcs.Sets {
		total += len(s)
	}
	if total != 16 {
		t.Fatalf("rim coverage %d want 16 (hub excluded)", total)
	}
	if arcs.Of[16] != -1 {
		t.Fatal("hub should be unassigned")
	}
}

// TestSingletonParts: single vertices are valid parts — the family the
// Borůvka decomposition's phase 0 starts from.
func TestSingletonParts(t *testing.T) {
	g := gen.Path(5)
	p, err := partition.New(g, [][]int{{1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 2 || len(p.Sets[0]) != 1 || p.Of[3] != 1 || p.Of[0] != -1 {
		t.Fatal("singletons wrong")
	}
}

func TestPathsAsParts(t *testing.T) {
	lb := gen.LowerBound(3, 5)
	p, err := partition.PathsAsParts(lb.G, lb.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != 3 {
		t.Fatalf("parts %d", p.NumParts())
	}
}

// TestBoruvkaTraceConsistency: the trace's per-phase record is internally
// consistent and its endpoint matches BoruvkaFragments — dense labels in
// smallest-member order, fragments that only merge from one phase to the
// next (and into the final parts), and Best edges that actually leave
// their fragment and are lightest among the fragment's incident outgoing
// edges.
func TestBoruvkaTraceConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(7, 9).G, rng))
	const phases = 3
	trace, p, err := partition.BoruvkaTrace(g, phases)
	if err != nil {
		t.Fatal(err)
	}
	want, err := partition.BoruvkaFragments(g, phases)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParts() != want.NumParts() {
		t.Fatalf("trace parts %d, fragments %d", p.NumParts(), want.NumParts())
	}
	for v := range p.Of {
		if p.Of[v] != want.Of[v] {
			t.Fatalf("vertex %d: trace part %d, fragments part %d", v, p.Of[v], want.Of[v])
		}
	}
	for phi, ph := range trace {
		if len(ph.Frag) != g.N() || len(ph.Best) != ph.NumFrags {
			t.Fatalf("phase %d: inconsistent record shapes", phi)
		}
		// Labels dense in smallest-member order: the first occurrence of
		// label l scanning v ascending must be preceded by labels 0..l-1.
		seen := int32(0)
		for v := 0; v < g.N(); v++ {
			if ph.Frag[v] == seen {
				seen++
			} else if ph.Frag[v] > seen {
				t.Fatalf("phase %d: label %d appears before %d", phi, ph.Frag[v], seen)
			}
		}
		if int(seen) != ph.NumFrags {
			t.Fatalf("phase %d: %d labels for NumFrags %d", phi, seen, ph.NumFrags)
		}
		for f := 0; f < ph.NumFrags; f++ {
			id := ph.Best[f]
			if id == -1 {
				continue
			}
			e := g.Edge(int(id))
			fu, fv := ph.Frag[e.U], ph.Frag[e.V]
			if fu != int32(f) && fv != int32(f) {
				t.Fatalf("phase %d fragment %d: best edge %d not incident", phi, f, id)
			}
			if fu == fv {
				t.Fatalf("phase %d fragment %d: best edge %d does not leave the fragment", phi, f, id)
			}
			// Lightest among the fragment's outgoing edges.
			for id2 := 0; id2 < g.M(); id2++ {
				e2 := g.Edge(id2)
				f2u, f2v := ph.Frag[e2.U], ph.Frag[e2.V]
				if f2u == f2v || (f2u != int32(f) && f2v != int32(f)) {
					continue
				}
				if graph.EdgeLess(g, id2, int(id)) {
					t.Fatalf("phase %d fragment %d: edge %d lighter than chosen %d", phi, f, id2, id)
				}
			}
		}
		// Fragments only merge: members of one fragment share the next
		// phase's label (or the final part index).
		into := make([]int32, ph.NumFrags)
		for f := range into {
			into[f] = -1
		}
		for v := 0; v < g.N(); v++ {
			next := int32(p.Of[v])
			if phi+1 < len(trace) {
				next = trace[phi+1].Frag[v]
			}
			if f := ph.Frag[v]; into[f] == -1 {
				into[f] = next
			} else if into[f] != next {
				t.Fatalf("phase %d fragment %d splits into labels %d and %d", phi, f, into[f], next)
			}
		}
	}
}

// randomMultigraph builds a random connected multigraph: a random spanning
// tree plus extra random edges, parallels allowed.
func randomMultigraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v, 1+rng.Float64())
		}
	}
	return g
}

// traceForest runs BoruvkaTrace to completion and returns the union of
// every phase's Best edges, sorted, with their total weight.
func traceForest(t *testing.T, g *graph.Graph) (ids []int, weight float64, trace []partition.BoruvkaPhase, p *partition.Parts) {
	t.Helper()
	trace, p, err := partition.BoruvkaTrace(g, g.N())
	if err != nil {
		t.Fatal(err)
	}
	chosen := make([]bool, g.M())
	for _, ph := range trace {
		for _, id := range ph.Best {
			if id != -1 && !chosen[id] {
				chosen[id] = true
				weight += g.Edge(int(id)).W
			}
		}
	}
	for id, c := range chosen {
		if c {
			ids = append(ids, id)
		}
	}
	return ids, weight, trace, p
}

// TestBoruvkaTraceMatchesKruskal checks Kruskal against an independent
// MST algorithm: sequential Borůvka run to completion picks exactly
// Kruskal's edges, within ⌈log₂ n⌉+1 phases.
func TestBoruvkaTraceMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(80)
		g := randomMultigraph(rng, n, rng.Intn(3*n))
		kIDs, kW := graph.Kruskal(g)
		bIDs, bW, trace, p := traceForest(t, g)
		if diff := kW - bW; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%d: weights differ: kruskal %v boruvka %v", n, kW, bW)
		}
		if !slices.Equal(kIDs, bIDs) {
			t.Fatalf("n=%d: trees differ: kruskal %v boruvka %v", n, kIDs, bIDs)
		}
		if p.NumParts() != 1 {
			t.Fatalf("n=%d: %d fragments left on a connected graph", n, p.NumParts())
		}
		// Borůvka at least halves the number of fragments per phase.
		lg := 0
		for 1<<lg < n {
			lg++
		}
		if len(trace) > lg+1 {
			t.Fatalf("n=%d: %d phases exceeds log bound %d", n, len(trace), lg+1)
		}
	}
}

// TestBoruvkaTraceDisconnected checks that a disconnected graph yields its
// spanning forest, one fragment per component.
func TestBoruvkaTraceDisconnected(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	ids, w, _, p := traceForest(t, g)
	if !slices.Equal(ids, []int{0, 1}) || w != 3 || p.NumParts() != 2 {
		t.Fatalf("forest ids=%v w=%v parts=%d", ids, w, p.NumParts())
	}
}

// TestBoruvkaTraceSkipsTombstones runs the trace on a grid with a
// RemoveEdge tombstone in its edge list: it must not read the tombstone's
// endpoints, and its forest must be Kruskal's tree of the live edges
// (Kruskal refuses tombstones, so it runs on the simplified copy and its
// IDs are mapped back).
func TestBoruvkaTraceSkipsTombstones(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(6, 6).G, xrand.New(3)))
	g.RemoveEdge(7)
	s, kept := g.Simplify()
	kIDs, kW := graph.Kruskal(s)
	for i, id := range kIDs {
		kIDs[i] = kept[id]
	}
	slices.Sort(kIDs)
	bIDs, bW, _, p := traceForest(t, g)
	if diff := kW - bW; !slices.Equal(kIDs, bIDs) || diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("trace forest %v (weight %v), kruskal %v (weight %v)", bIDs, bW, kIDs, kW)
	}
	if p.NumParts() != 1 {
		t.Fatalf("%d fragments left on a connected graph", p.NumParts())
	}
}
