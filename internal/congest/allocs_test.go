package congest_test

import (
	"fmt"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// These tests are the dynamic half of the hotalloc story: the static
// analyzer (internal/analysis/hotalloc, run by cmd/congestlint) proves the
// round kernels contain no allocating expressions, and these pins prove
// the whole-run allocation count is a flat setup constant — far below one
// allocation per node-round. A kernel regression allocates per node per
// round, so it overshoots each pin by orders of magnitude (the tests
// assert node-rounds exceed the pin to keep that cross-check meaningful).

// pinAllocs runs fn through testing.AllocsPerRun and checks the ceiling
// and the node-rounds dominance that makes the ceiling a kernel check.
func pinAllocs(t *testing.T, name string, ceiling float64, nodeRounds int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fn() // warm lazy state so the pin measures steady-state runs
	allocs := testing.AllocsPerRun(8, fn)
	if allocs > ceiling {
		t.Errorf("%s allocates %.0f objects per run; pinned ceiling is %.0f — a round kernel is allocating", name, allocs, ceiling)
	}
	if float64(nodeRounds) < ceiling {
		t.Errorf("%s: node-rounds %d below the %.0f ceiling; grow the instance so a per-node-round allocation cannot hide in the slack", name, nodeRounds, ceiling)
	}
}

// TestPipecastAllocsFlat pins the Pipecast kernel: one run's allocations
// are its setup slabs (tag lists, accumulators, ring state), not
// O(node-rounds) objects.
func TestPipecastAllocsFlat(t *testing.T) {
	rng := xrand.New(7)
	g := gen.ErdosRenyiConnected(64, 200, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	const numTags = 4096
	contrib := randomContrib(g.N(), numTags, rng)
	var stats congest.Stats
	run := func() {
		res, err := congest.Pipecast(tr, numTags, contrib, congest.CombineSum)
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "Pipecast", 320, g.N()*stats.Rounds, run)
}

// TestConstructShortcutAllocsFlat pins the flooding-construction kernel
// in simulate mode. Its state lives in run-wide slabs sized by tree
// children, so a run allocates 33 objects.
func TestConstructShortcutAllocsFlat(t *testing.T) {
	g := gen.Wheel(129).G
	p, err := partition.RimArcs(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	var stats congest.Stats
	run := func() {
		res, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: 8, Simulate: true})
		if err != nil {
			t.Fatal(err)
		}
		stats = res.Stats
	}
	run()
	pinAllocs(t, "ConstructShortcut", 64, g.N()*stats.Rounds, run)
}

// TestBatchRelaxAllocsFlat pins the relaxation kernel on a reused
// BatchRelaxer, single-source (k=1) and batched: one run's allocations
// are its setup slabs (the k×n distance planes, port views, dirty bits),
// not O(node-rounds) objects — the zero-allocs-per-round claim of the
// query-serving layer's miss path.
func TestBatchRelaxAllocsFlat(t *testing.T) {
	rng := xrand.New(17)
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
	relaxer := congest.NewBatchRelaxer(g, p, s)
	weights := edgeWeights(g)
	for _, tc := range []struct {
		k       int
		ceiling float64
	}{{1, 96}, {8, 224}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			init := make([][]float64, tc.k)
			for i := range init {
				init[i] = infInit(g.N(), (i*11)%g.N())
			}
			var stats congest.Stats
			run := func() {
				res, err := relaxer.Relax(weights, init)
				if err != nil {
					t.Fatal(err)
				}
				stats = res.Stats
			}
			run()
			pinAllocs(t, "BatchRelaxer.Relax", tc.ceiling, g.N()*stats.Rounds, run)
		})
	}
}

// TestRoundPathAllocsFlat pins the engine's round loop itself: the pins
// above cap allocations per run, so an allocation made once per round
// hides in their slack. A sparse protocol on the 16×16 grid must allocate
// exactly as much over 400 rounds as over 100.
func TestRoundPathAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := gen.Grid(16, 16).G
	allocs := func(rounds int) float64 {
		proto := sparseProto(g, func(int) int { return rounds }, nil)
		return testing.AllocsPerRun(8, func() {
			if _, err := congest.RunSync(g, proto, congest.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(100), allocs(400)
	if long != short {
		t.Errorf("a run allocates %.0f objects over 100 rounds but %.0f over 400: the round loop allocates per round", short, long)
	}
}
