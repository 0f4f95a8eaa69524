package sssp_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sssp"
)

// TestApproxConstructed: the full in-network pipeline — the network builds
// its own shortcut with the flooding construction, then runs part-wise
// relaxation over it — keeps the (1+ε) stretch guarantee and books the
// construction rounds in the ledger matching the run's mode.
func TestApproxConstructed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.Wheel(65).G
	hub := g.N() - 1
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if e.U == hub || e.V == hub {
			g.SetWeight(id, 500+rng.Float64())
		} else {
			g.SetWeight(id, 1+0.25*rng.Float64())
		}
	}
	tr, err := graph.BFSTree(g, hub)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.RimArcs(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := graph.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.1
	for _, simulate := range []bool{false, true} {
		r, err := sssp.ApproxProvided(g, 0, p, pipeline.Flood(g, tr, 2, simulate), sssp.Options{Eps: eps, Simulate: simulate})
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		for v := 0; v < g.N(); v++ {
			if v == 0 {
				continue
			}
			ratio := r.Dist[v] / exact.Dist[v]
			if ratio < 1-1e-12 || ratio > 1+eps+1e-12 {
				t.Fatalf("simulate=%v vertex %d: stretch %v outside [1, 1+eps]", simulate, v, ratio)
			}
		}
		if r.ConstructRounds <= 0 {
			t.Fatalf("simulate=%v: construction rounds not recorded", simulate)
		}
		if simulate {
			if r.CommRounds < r.ConstructRounds || r.ChargedRounds != 0 {
				t.Fatalf("simulate=true: construction rounds not in the simulated ledger: %+v", r)
			}
		} else {
			if r.ChargedRounds < r.ConstructRounds || r.CommRounds != 0 {
				t.Fatalf("simulate=false: construction rounds not in the charged ledger: %+v", r)
			}
		}
	}
}
