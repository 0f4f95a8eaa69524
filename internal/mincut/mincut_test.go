package mincut_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
)

func assertValidCut(t *testing.T, g *graph.Graph, r *mincut.Result) {
	t.Helper()
	if len(r.Side) == 0 || len(r.Side) >= g.N() {
		t.Fatalf("degenerate side of size %d", len(r.Side))
	}
	if w := graph.CutWeight(g, r.Side); math.Abs(w-r.Value) > 1e-6 {
		t.Fatalf("reported %v but side cuts %v", r.Value, w)
	}
}

func TestApproxOnBridge(t *testing.T) {
	// Two cliques joined by one light edge: the bridge is the min cut and
	// 1-respects every spanning tree.
	g := graph.New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(i+4, j+4, 1)
		}
	}
	g.AddEdge(0, 4, 0.25)
	r, err := mincut.Approx(g, mincut.Options{Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertValidCut(t, g, r)
	if r.Value != 0.25 {
		t.Fatalf("found %v want 0.25", r.Value)
	}
}

func TestApproxMatchesExactOnSmallGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		g := gen.ErdosRenyiConnected(14+rng.Intn(10), 40+rng.Intn(30), rng)
		gen.UniformWeights(g, rng)
		exact, _, err := graph.GlobalMinCut(g)
		if err != nil {
			t.Fatal(err)
		}
		r, err := mincut.Approx(g, mincut.Options{Trees: 24, TwoRespecting: true})
		if err != nil {
			t.Fatal(err)
		}
		assertValidCut(t, g, r)
		if r.Value < exact-1e-9 {
			t.Fatalf("found cut %v below exact minimum %v", r.Value, exact)
		}
		if r.Value > exact*(1+0.34)+1e-9 {
			t.Fatalf("trial %d: found %v, exact %v: ratio %.3f too large",
				trial, r.Value, exact, r.Value/exact)
		}
	}
}

func TestApproxOneRespectingOnlyStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(5, 5).G, rng))
	exact, _, err := graph.GlobalMinCut(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mincut.Approx(g, mincut.Options{Trees: 16})
	if err != nil {
		t.Fatal(err)
	}
	assertValidCut(t, g, r)
	if r.Value < exact-1e-9 {
		t.Fatal("cut below minimum is impossible")
	}
	// 1-respecting alone guarantees a 2-approximation shape in practice on
	// grids; assert a loose factor.
	if r.Value > 3*exact {
		t.Fatalf("1-respecting cut %v vs exact %v", r.Value, exact)
	}
}

func TestApproxWithSimulatedMST(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Wheel(24).G, rng))
	exact, _, err := graph.GlobalMinCut(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mincut.Approx(g, mincut.Options{Trees: 8, TwoRespecting: true, SimulateMST: true})
	if err != nil {
		t.Fatal(err)
	}
	assertValidCut(t, g, r)
	if r.CommRounds <= 0 {
		t.Fatal("simulated run recorded no rounds")
	}
	if r.Value > 2*exact {
		t.Fatalf("cut %v vs exact %v", r.Value, exact)
	}
}

func TestApproxErrors(t *testing.T) {
	if _, err := mincut.Approx(graph.New(1), mincut.Options{}); err == nil {
		t.Fatal("accepted single vertex")
	}
	d := graph.New(4)
	d.AddEdge(0, 1, 1)
	if _, err := mincut.Approx(d, mincut.Options{}); err == nil {
		t.Fatal("accepted disconnected graph")
	}
}

// Invalid options fail with ErrInvalidOptions instead of packing no tree
// and returning the best singleton cut, and the tree count derived from a
// tiny or huge eps is clamped to [1, 48] before the int conversion.
func TestApproxOptions(t *testing.T) {
	g := gen.Grid(6, 6).G
	for _, tc := range []struct {
		name  string
		opts  mincut.Options
		trees int // 0: want ErrInvalidOptions
	}{
		{"nan eps", mincut.Options{Eps: math.NaN()}, 0},
		{"+inf eps", mincut.Options{Eps: math.Inf(1)}, 0},
		{"-inf eps", mincut.Options{Eps: math.Inf(-1)}, 0},
		{"negative eps", mincut.Options{Eps: -1}, 0},
		{"negative trees", mincut.Options{Trees: -3}, 0},
		{"tiny eps", mincut.Options{Eps: 1e-9}, 48},
		{"huge eps", mincut.Options{Eps: 1e300}, 1},
	} {
		r, err := mincut.Approx(g, tc.opts)
		if tc.trees == 0 {
			if !errors.Is(err, mincut.ErrInvalidOptions) {
				t.Errorf("%s: got %v, %v; want ErrInvalidOptions", tc.name, r, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Trees != tc.trees {
			t.Errorf("%s: packed %d trees, want %d", tc.name, r.Trees, tc.trees)
		}
		assertValidCut(t, g, r)
	}
}

func TestApproxCycleExact(t *testing.T) {
	// Any two tree-edge cuts of a cycle's spanning path give the exact
	// min cut 2; TwoRespecting must find it.
	g := gen.Cycle(12)
	r, err := mincut.Approx(g, mincut.Options{Trees: 3, TwoRespecting: true})
	if err != nil {
		t.Fatal(err)
	}
	assertValidCut(t, g, r)
	if r.Value != 2 {
		t.Fatalf("cycle min cut %v want 2", r.Value)
	}
}

// Regression: the per-tree 1-respecting convergecast charge (2·height+2)
// was added to CommRounds even in analytic mode (SimulateMST=false), where
// every other round went to ChargedRounds — mixing the two ledgers. Each
// mode must report its rounds in exactly one ledger.
func TestRoundLedgersStayInTheirMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := gen.DistinctWeights(gen.UniformWeights(gen.Wheel(20).G, rng))

	analytic, err := mincut.Approx(g, mincut.Options{Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	if analytic.CommRounds != 0 {
		t.Fatalf("analytic run leaked %d rounds into CommRounds", analytic.CommRounds)
	}
	if analytic.ChargedRounds <= 0 {
		t.Fatal("analytic run recorded no charged rounds")
	}

	simulated, err := mincut.Approx(g, mincut.Options{Trees: 4, SimulateMST: true})
	if err != nil {
		t.Fatal(err)
	}
	if simulated.CommRounds <= 0 {
		t.Fatal("simulated run recorded no simulated rounds")
	}
	// The simulated convergecast charge must land in CommRounds: with equal
	// tree counts it makes the simulated CommRounds strictly dominate the
	// analytic run's (which must stay zero).
	if simulated.CommRounds <= analytic.CommRounds {
		t.Fatalf("simulated CommRounds %d vs analytic %d", simulated.CommRounds, analytic.CommRounds)
	}
}

// TestApproxExtremeWeights: a cut's value is the sum of its crossing
// edges, never a difference, so +Inf weights make no NaN and huge weights
// do not cancel small ones. On random connected graphs of 2–11 vertices
// with weights 1–9, unchanged, with a quarter of the edges at +Inf, or
// with a quarter at 1e300, a two-respecting run at ε = 0.5 must keep a
// non-empty proper side whose crossing weight is the reported value, no
// lighter than the exact minimum, and equal to it in the families with
// finite weights. A packed tree need not expose a finite cut of a graph
// with +Inf edges as 1- or 2-respecting, so there the value may be +Inf.
func TestApproxExtremeWeights(t *testing.T) {
	graphs := 1000
	if testing.Short() {
		graphs = 200
	}
	for _, fam := range []struct {
		name  string
		heavy float64 // the weight of a quarter of the edges, 0 for none
	}{{"ordinary", 0}, {"+Inf", math.Inf(1)}, {"1e300", 1e300}} {
		rng := rand.New(rand.NewSource(29))
		unexposed := 0 // graphs with a finite minimum reported at +Inf
		for trial := 0; trial < graphs; trial++ {
			n := 2 + rng.Intn(10)
			g := gen.ErdosRenyiConnected(n, n-1+rng.Intn(n*(n-1)/2-n+2), rng)
			for id := 0; id < g.M(); id++ {
				w := float64(1 + rng.Intn(9))
				if fam.heavy != 0 && rng.Intn(4) == 0 {
					w = fam.heavy
				}
				g.SetWeight(id, w)
			}
			exact, _, err := graph.GlobalMinCut(g)
			if err != nil {
				t.Fatal(err)
			}
			r, err := mincut.Approx(g, mincut.Options{Eps: 0.5, TwoRespecting: true})
			if err != nil {
				t.Fatalf("%s graph %d: %v", fam.name, trial, err)
			}
			at := fmt.Sprintf("%s graph %d (n=%d, edges %v)", fam.name, trial, n, g.Edges())
			if len(r.Side) == 0 || len(r.Side) >= n {
				t.Fatalf("%s: side %v of %d vertices", at, r.Side, n)
			}
			if w := graph.CutWeight(g, r.Side); w != r.Value {
				t.Fatalf("%s: reported %v, side %v cuts %v", at, r.Value, r.Side, w)
			}
			if r.Value < exact || (!math.IsInf(fam.heavy, 1) && r.Value != exact) {
				t.Fatalf("%s: reported %v, exact minimum %v", at, r.Value, exact)
			}
			if math.IsInf(r.Value, 1) && !math.IsInf(exact, 1) {
				unexposed++
			}
		}
		t.Logf("%s: %d of %d graphs with a finite minimum cut reported +Inf", fam.name, unexposed, graphs)
	}
}
