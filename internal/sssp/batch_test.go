package sssp_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/sssp"
	"repro/internal/tw"
	"repro/internal/xrand"
)

// e14Family is one of the zero-witness pipeline's benchmark families with
// its witness-constructed shortcut — the construction E14 serves queries
// over.
type e14Family struct {
	name string
	g    *graph.Graph
	p    *partition.Parts
	s    *shortcut.Shortcut
}

// e14Families builds small instances of all three E14 families: grids with
// row parts, wheels with rim-arc parts, and K5-minor-free clique-sum
// chains with Voronoi parts.
func e14Families(t *testing.T, seed int64) []e14Family {
	t.Helper()
	rng := xrand.New(seed)
	var out []e14Family

	e := gen.Grid(6, 6)
	g := gen.UniformWeights(e.G, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(g, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tw.FromEmbeddingByCotree(e.Emb, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shortcut.FromTreewidth(g, tr, p, d)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, e14Family{"grid", g, p, res.S})

	a := gen.CycleWithApex(32, rng)
	g = gen.UniformWeights(a.G, rng)
	tr, err = graph.BFSTree(g, a.Apices[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err = partition.RimArcs(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := core.AlmostEmbeddableShortcut(g, tr, p, a)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, e14Family{"wheel", g, p, ares.S})

	pieces := []*gen.Piece{gen.ApollonianPiece(18, rng), gen.ApollonianPiece(20, rng)}
	cs := gen.CliqueSum(pieces, 3, rng)
	g = gen.UniformWeights(cs.G, rng)
	tr, err = graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err = partition.Voronoi(g, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := &core.CliqueSumWitness{CST: cs.CST, BagGraphs: cs.BagGraphs, BagDecomp: cs.BagDecomp, BagToGlobal: cs.BagToGlobal}
	cres, err := core.ExcludedMinorShortcut(g, tr, p, w)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, e14Family{"k5free", g, p, cres.S})
	return out
}

// The batched k-source run must return, per source, exactly the bytes the
// sequential single-source pipeline returns — on every E14 family, in
// both ledger modes.
func TestApproxBatchByteEqualSequential(t *testing.T) {
	for _, fam := range e14Families(t, 2018) {
		for _, simulate := range []bool{false, true} {
			n := fam.g.N()
			srcs := make([]int, 8)
			for i := range srcs {
				srcs[i] = (i * 5) % n
			}
			opts := sssp.Options{Eps: 0.125, Simulate: simulate}
			batch, err := sssp.ApproxBatch(fam.g, srcs, fam.p, fam.s, opts)
			if err != nil {
				t.Fatalf("%s simulate=%v: %v", fam.name, simulate, err)
			}
			if batch.MaxPhaseRounds > batch.PhaseBudget {
				t.Errorf("%s simulate=%v: per-phase quiet-point %d exceeds the O(h+k) budget %d",
					fam.name, simulate, batch.MaxPhaseRounds, batch.PhaseBudget)
			}
			for i, src := range srcs {
				seq, err := sssp.Approx(fam.g, src, fam.p, fam.s, opts)
				if err != nil {
					t.Fatalf("%s simulate=%v src=%d: %v", fam.name, simulate, src, err)
				}
				for v := 0; v < n; v++ {
					if batch.Dist[i][v] != seq.Dist[v] {
						t.Fatalf("%s simulate=%v src=%d vertex %d: batched %v vs sequential %v",
							fam.name, simulate, src, v, batch.Dist[i][v], seq.Dist[v])
					}
				}
			}
		}
	}
}

// Batched distances also satisfy the (1+eps) stretch guarantee against
// the exact oracle, per source.
func TestApproxBatchStretch(t *testing.T) {
	fam := e14Families(t, 7)[1] // wheel
	const eps = 0.2
	srcs := []int{0, 3, 11, 19}
	batch, err := sssp.ApproxBatch(fam.g, srcs, fam.p, fam.s, sssp.Options{Eps: eps})
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		exact, err := graph.Dijkstra(fam.g, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < fam.g.N(); v++ {
			d, want := batch.Dist[i][v], exact.Dist[v]
			if d < want-1e-12 || d > want*(1+eps)+1e-12 {
				t.Fatalf("src %d vertex %d: batched %v outside [%v, %v]", src, v, d, want, want*(1+eps))
			}
		}
	}
}

// The duplicate-source batch is legal and every copy gets the same vector.
func TestApproxBatchDuplicateSources(t *testing.T) {
	fam := e14Families(t, 7)[0] // grid
	batch, err := sssp.ApproxBatch(fam.g, []int{4, 4, 9}, fam.p, fam.s, sssp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < fam.g.N(); v++ {
		if batch.Dist[0][v] != batch.Dist[1][v] {
			t.Fatalf("duplicate sources diverge at vertex %d", v)
		}
	}
}

// A churn tombstone is not an edge: a simulated batch over a graph that
// gained and then lost an edge must report exactly what it reports over
// the graph that never had it, message count included.
func TestApproxBatchIgnoresRemovedEdges(t *testing.T) {
	run := func(g *graph.Graph) *sssp.BatchResult {
		t.Helper()
		p, err := partition.RimArcs(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := graph.BFSTree(g, g.N()-1)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := shortcut.ObliviousAuto(g, tr, p)
		r, err := sssp.ApproxBatch(g, []int{0, 5}, p, s, sssp.Options{Simulate: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := gen.UniformWeights(gen.Wheel(17).G, xrand.New(3))
	churned := base.Clone()
	churned.RemoveEdge(churned.AddEdge(0, 8, 1))
	if want, got := run(base), run(churned); !reflect.DeepEqual(got, want) {
		t.Fatalf("after removing an edge: %+v\nnever had it: %+v", got, want)
	}
}

// The satellite regression: malformed Options must be rejected with the
// repo's wrapped invalid-options error instead of silently producing
// garbage (NaN eps in particular passes every `< 0` comparison).
func TestOptionsValidation(t *testing.T) {
	fam := e14Families(t, 7)[0]
	bad := []sssp.Options{
		{Eps: math.NaN()},
		{Eps: math.Inf(1)},
		{Eps: math.Inf(-1)},
		{Eps: -0.5},
		{MaxPhases: -1},
	}
	for _, opts := range bad {
		if _, err := sssp.Approx(fam.g, 0, fam.p, fam.s, opts); !errors.Is(err, sssp.ErrInvalidOptions) {
			t.Errorf("Approx(%+v): got %v, want ErrInvalidOptions", opts, err)
		}
		if _, err := sssp.ApproxBatch(fam.g, []int{0, 1}, fam.p, fam.s, opts); !errors.Is(err, sssp.ErrInvalidOptions) {
			t.Errorf("ApproxBatch(%+v): got %v, want ErrInvalidOptions", opts, err)
		}
	}
	// The zero value still selects the documented default.
	if _, err := sssp.Approx(fam.g, 0, fam.p, fam.s, sssp.Options{}); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}
}
