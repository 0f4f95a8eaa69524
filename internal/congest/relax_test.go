package congest_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

func infInit(n, src int) []float64 {
	init := make([]float64, n)
	for v := range init {
		init[v] = math.Inf(1)
	}
	init[src] = 0
	return init
}

func edgeWeights(g *graph.Graph) []float64 {
	w := make([]float64, g.M())
	for id := range w {
		w[id] = g.Edge(id).W
	}
	return w
}

// RelaxBellmanFord must compute exact distances and settle in exactly
// maxHops+1 effective rounds (one round per hop of the slowest shortest
// path, plus the final improvement broadcast).
func TestRelaxBellmanFordMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g := gen.UniformWeights(gen.ErdosRenyiConnected(30, 70, rng), rng)
		src := rng.Intn(g.N())
		res, err := congest.RelaxBellmanFord(g, edgeWeights(g), infInit(g.N(), src))
		if err != nil {
			t.Fatal(err)
		}
		want, err := graph.Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		maxHops := 0
		for v := 0; v < g.N(); v++ {
			if res.Dist[v] != want.Dist[v] {
				t.Fatalf("vertex %d: protocol %v vs dijkstra %v", v, res.Dist[v], want.Dist[v])
			}
			if want.Hops[v] > maxHops {
				maxHops = want.Hops[v]
			}
		}
		if res.EffectiveRounds != maxHops+1 {
			t.Fatalf("settled in %d effective rounds, want maxHops+1 = %d", res.EffectiveRounds, maxHops+1)
		}
	}
}

// refChannelRelax computes the fixed point over the part+shortcut channel
// edges by brute-force iteration: the ground truth BatchRelaxer must hit.
func refChannelRelax(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, w, init []float64) []float64 {
	onChannel := make([]bool, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if pi := p.Of[e.U]; pi != -1 && pi == p.Of[e.V] {
			onChannel[id] = true
		}
	}
	for _, ids := range s.Edges {
		for _, id := range ids {
			onChannel[id] = true
		}
	}
	dist := append([]float64(nil), init...)
	for iter := 0; iter < g.N()+1; iter++ {
		changed := false
		for id := 0; id < g.M(); id++ {
			if !onChannel[id] {
				continue
			}
			e := g.Edge(id)
			if c := dist[e.U] + w[id]; c < dist[e.V] {
				dist[e.V] = c
				changed = true
			}
			if c := dist[e.V] + w[id]; c < dist[e.U] {
				dist[e.U] = c
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestBatchRelaxComputesChannelFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	e := gen.Wheel(33)
	g := gen.UniformWeights(e.G, rng)
	hub := g.N() - 1
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, hub)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	// Several seeds with finite potentials, not just a single source.
	init := infInit(g.N(), 0)
	init[7] = 2.5
	init[20] = 0.25
	res, err := congest.NewBatchRelaxer(g, p, s).Relax(edgeWeights(g), [][]float64{init})
	if err != nil {
		t.Fatal(err)
	}
	want := refChannelRelax(g, p, s, edgeWeights(g), init)
	for v := 0; v < g.N(); v++ {
		if res.Dist[0][v] != want[v] {
			t.Fatalf("vertex %d: protocol %v vs reference %v", v, res.Dist[0][v], want[v])
		}
	}
	if res.EffectiveRounds <= 0 || res.EffectiveRounds > res.Budget {
		t.Fatalf("effective rounds %d out of (0, %d]", res.EffectiveRounds, res.Budget)
	}
}

// The relaxation protocol's full observable result must be byte-identical
// across GOMAXPROCS settings, like every other engine protocol.
func TestBatchRelaxIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := gen.Wheel(49)
	g := gen.UniformWeights(e.G, rng)
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	run := func() string {
		res, err := congest.NewBatchRelaxer(g, p, s).Relax(edgeWeights(g), [][]float64{infInit(g.N(), 3)})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %d %d %+v", res.Dist, res.EffectiveRounds, res.Budget, res.Stats)
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	eight := run()
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("relaxation results differ:\nGOMAXPROCS=1: %s\nGOMAXPROCS=8: %s", one, eight)
	}
}

func TestRelaxInputValidation(t *testing.T) {
	g := gen.Path(4)
	w := []float64{1, 1, 1}
	if _, err := congest.RelaxBellmanFord(g, w[:2], infInit(4, 0)); err == nil {
		t.Fatal("accepted short weights")
	}
	if _, err := congest.RelaxBellmanFord(g, w, infInit(3, 0)); err == nil {
		t.Fatal("accepted short init")
	}
	if _, err := congest.RelaxBellmanFord(g, []float64{1, math.NaN(), 1}, infInit(4, 0)); err == nil {
		t.Fatal("accepted NaN weight")
	}
}
