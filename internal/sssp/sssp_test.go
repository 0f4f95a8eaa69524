package sssp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// approxOn runs the pipeline on g with Voronoi parts and an oblivious
// shortcut and validates the (1+eps) stretch guarantee against Dijkstra.
func approxOn(t *testing.T, g *graph.Graph, numParts int, eps float64, rng *rand.Rand, opts Options) *Result {
	t.Helper()
	p, err := partition.Voronoi(g, numParts, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	src := rng.Intn(g.N())
	opts.Eps = eps
	r, err := Approx(g, src, p, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := graph.Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dist[src] != 0 {
		t.Fatalf("source distance %v", r.Dist[src])
	}
	for v := 0; v < g.N(); v++ {
		if v == src {
			continue
		}
		if r.Dist[v] < exact.Dist[v]-1e-9 {
			t.Fatalf("vertex %d: approx %v below exact %v", v, r.Dist[v], exact.Dist[v])
		}
		if r.Dist[v] > exact.Dist[v]*(1+eps)+1e-9 {
			t.Fatalf("vertex %d: approx %v exceeds (1+%v)·%v", v, r.Dist[v], eps, exact.Dist[v])
		}
	}
	return r
}

// Stretch stays within 1+eps on randomized planar, k-tree, and clique-sum
// instances across eps values — the guarantee the weight rounding provides
// by construction, checked end to end against the exact oracle.
func TestStretchWithinEpsOnRandomFamilies(t *testing.T) {
	for _, eps := range []float64{0.05, 0.1, 0.4} {
		rng := xrand.New(101 + int64(eps*1000))
		// Planar: random Apollonian triangulations.
		for trial := 0; trial < 3; trial++ {
			g := gen.UniformWeights(gen.NewApollonian(40+rng.Intn(30), rng).G, rng)
			approxOn(t, g, 6, eps, rng, Options{})
		}
		// Bounded treewidth: random partial 3-trees.
		for trial := 0; trial < 3; trial++ {
			g := gen.UniformWeights(gen.KTree(50+rng.Intn(30), 3, rng).G, rng)
			approxOn(t, g, 6, eps, rng, Options{})
		}
		// K5-minor-free clique-sums of planar pieces.
		pieces := make([]*gen.Piece, 3)
		for i := range pieces {
			pieces[i] = gen.ApollonianPiece(16, rng)
		}
		g := gen.UniformWeights(gen.CliqueSum(pieces, 3, rng).G, rng)
		approxOn(t, g, 6, eps, rng, Options{})
	}
}

// The simulated pipeline and the analytic fast path must produce
// bit-identical distances (both converge to the exact rounded-weight
// distances via the same left-to-right path sums), and each mode must keep
// its rounds in its own ledger.
func TestSimulateMatchesAnalytic(t *testing.T) {
	rng := xrand.New(55)
	g := gen.Wheel(49).G
	hub := g.N() - 1
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if e.U == hub || e.V == hub {
			g.SetWeight(id, 480+rng.Float64())
		} else {
			g.SetWeight(id, 1+0.25*rng.Float64())
		}
	}
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, hub)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	analytic, err := Approx(g, 0, p, s, Options{Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := Approx(g, 0, p, s, Options{Eps: 0.1, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if analytic.Dist[v] != simulated.Dist[v] {
			t.Fatalf("vertex %d: analytic %v vs simulated %v", v, analytic.Dist[v], simulated.Dist[v])
		}
	}
	if analytic.Phases != simulated.Phases {
		t.Fatalf("phase counts differ: %d vs %d", analytic.Phases, simulated.Phases)
	}
	// Ledger purity (the mincut regression, enforced here from day one).
	if analytic.CommRounds != 0 || analytic.ChargedRounds <= 0 {
		t.Fatalf("analytic ledgers: comm=%d charged=%d", analytic.CommRounds, analytic.ChargedRounds)
	}
	if simulated.ChargedRounds != 0 || simulated.CommRounds <= 0 {
		t.Fatalf("simulated ledgers: comm=%d charged=%d", simulated.CommRounds, simulated.ChargedRounds)
	}
	if simulated.Messages <= 0 {
		t.Fatal("simulated run recorded no messages")
	}
}

// The pipeline's result is deterministic: same inputs, same output, at any
// GOMAXPROCS (the engine promises transcript determinism; the analytic
// path is sequential).
func TestApproxDeterministic(t *testing.T) {
	rng := xrand.New(77)
	g := gen.UniformWeights(gen.NewApollonian(60, rng).G, rng)
	p, err := partition.Voronoi(g, 5, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	run := func(sim bool) *Result {
		r, err := Approx(g, 2, p, s, Options{Eps: 0.1, Simulate: sim})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(true), run(true)
	if a.CommRounds != b.CommRounds || a.Messages != b.Messages || a.Phases != b.Phases {
		t.Fatalf("nondeterministic simulated run: %+v vs %+v", a, b)
	}
	for v := range a.Dist {
		if a.Dist[v] != b.Dist[v] {
			t.Fatalf("vertex %d distances differ across runs", v)
		}
	}
}

// The analytic phase hot path must not allocate once warm: all phase state
// (the Jacobi buffer, and the relaxation oracle's channel marks and
// potential-Dijkstra heap) is reused.
func TestPhaseHotPathAllocs(t *testing.T) {
	rng := xrand.New(42)
	g := gen.UniformWeights(gen.Wheel(129).G, rng)
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	rounded, err := RoundWeights(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(g, rounded)
	oracle := congest.NewRelaxOracle(g, p, s)
	dist := make([]float64, g.N())
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[0] = 0
	for i := 0; i < 3; i++ { // warm: run phases to convergence
		e.crossPhase(dist)
		oracle.FixedPoint(rounded, dist)
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.crossPhase(dist)
		oracle.FixedPoint(rounded, dist)
	})
	if allocs != 0 {
		t.Fatalf("phase hot path allocates %v times per phase", allocs)
	}
}

func TestRoundWeightsBounds(t *testing.T) {
	rng := xrand.New(8)
	g := gen.UniformWeights(gen.NewApollonian(30, rng).G, rng)
	for id := 0; id < g.M(); id++ {
		g.SetWeight(id, g.Edge(id).W*math.Pow(10, float64(rng.Intn(7)-3)))
	}
	const eps = 0.17
	r, err := RoundWeights(g, eps)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.M(); id++ {
		w := g.Edge(id).W
		if r[id] < w || r[id] > w*(1+eps)*(1+1e-12) {
			t.Fatalf("edge %d: weight %v rounded to %v outside [w, (1+eps)w]", id, w, r[id])
		}
	}
	g.SetWeight(0, 0)
	if _, err := RoundWeights(g, eps); err == nil {
		t.Fatal("accepted zero weight")
	}
	g.SetWeight(0, 1)
	if _, err := RoundWeights(g, 0); err == nil {
		t.Fatal("accepted eps=0")
	}
}

func TestNaiveRoundsOnPath(t *testing.T) {
	g := gen.Path(10)
	r, err := graph.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := NaiveRoundsFrom(r); rounds != 10 { // 9 hops to the far end + the final quiet broadcast
		t.Fatalf("NaiveRoundsFrom = %d, want 10", rounds)
	}
}

func TestApproxErrors(t *testing.T) {
	g := gen.Path(4)
	p, err := partition.New(g, [][]int{{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := shortcut.Empty(g, tr, p)
	if _, err := Approx(g, -1, p, s, Options{}); err == nil {
		t.Fatal("accepted bad source")
	}
	if _, err := Approx(g, 0, p, s, Options{Eps: -0.5}); err == nil {
		t.Fatal("accepted negative eps")
	}
	g.SetWeight(0, -2)
	if _, err := Approx(g, 0, p, s, Options{}); err == nil {
		t.Fatal("accepted negative weight")
	}
}
