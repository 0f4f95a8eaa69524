package experiments

import (
	"testing"
	"time"
)

// TestScalePipelineModes runs the full pipeline on every family in every
// mode at experiment size and pins the mode-agreement invariants: the modes
// share one fixed point (same leader, parts, cap, MST — the MST oracle
// check is inside ScalePipeline), and rounds land in the matching ledger
// only.
func TestScalePipelineModes(t *testing.T) {
	for _, family := range []string{"grid", "wheel", "chain"} {
		var caps []int
		for _, mode := range []ScaleMode{ScaleAnalytic, ScaleHybrid, ScaleSimulate} {
			res, err := ScalePipeline(family, 400, mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", family, mode, err)
			}
			caps = append(caps, res.Cap)
			if res.MSTEdges != res.N-1 {
				t.Errorf("%s/%s: MST has %d edges for %d nodes", family, mode, res.MSTEdges, res.N)
			}
			_, sim, chg := res.Totals()
			switch mode {
			case ScaleAnalytic:
				if sim != 0 || chg == 0 {
					t.Errorf("%s/analytic: simulated=%d charged=%d, want 0/>0", family, sim, chg)
				}
			case ScaleSimulate:
				if sim == 0 || chg != 0 {
					t.Errorf("%s/simulate: simulated=%d charged=%d, want >0/0", family, sim, chg)
				}
			case ScaleHybrid:
				if sim == 0 || chg == 0 {
					t.Errorf("%s/hybrid: simulated=%d charged=%d, want both >0", family, sim, chg)
				}
			}
		}
		if caps[0] != caps[1] || caps[1] != caps[2] {
			t.Errorf("%s: modes disagree on the winning cap: %v", family, caps)
		}
	}
}

// TestScaleSmoke100k is the CI-facing scale smoke (make scale-smoke): the
// full zero-witness pipeline at 10⁵ nodes on the grid (hybrid: Θ(√n)-
// diameter setup floods simulated message-level) and the wheel, with the
// MST oracle-checked inside the harness and a generous wall-clock ceiling
// so a quadratic regression on any stage fails loudly rather than hanging.
// Under the race detector the grid's 10⁵-node election flood alone takes
// about three minutes, so the same assertions run on 10⁴ nodes: the race
// coverage of the hybrid pipeline, at a size that fits the budget.
func TestScaleSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-node pipeline skipped in -short")
	}
	n := 100_000
	if raceEnabled {
		n = 10_000
	}
	for _, family := range []string{"grid", "wheel"} {
		start := time.Now()
		res, err := ScalePipeline(family, n, ScaleHybrid)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		t.Logf("\n%s", res)
		if res.MSTEdges != res.N-1 {
			t.Errorf("%s: MST has %d edges for %d nodes", family, res.MSTEdges, res.N)
		}
		if res.Stages[1].Bits == 0 || res.Stages[2].Bits == 0 {
			t.Errorf("%s: hybrid setup stages streamed no traffic: %+v", family, res.Stages[1:3])
		}
		if elapsed := time.Since(start); elapsed > 120*time.Second {
			t.Errorf("%s: pipeline took %v, budget 120s", family, elapsed)
		}
	}
}

// TestScalePipelineRejectsTooSmall: a size a scale family cannot be built
// at is an error from ScalePipeline, not a generator panic; the smallest
// size each family takes runs.
func TestScalePipelineRejectsTooSmall(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
	}{{"wheel", 3}, {"wheel", 0}, {"grid", 0}, {"chain", -1}} {
		if res, err := ScalePipeline(tc.family, tc.n, ScaleSimulate); err == nil {
			t.Errorf("%s at n = %d: got %d vertices, want an error", tc.family, tc.n, res.N)
		}
	}
	for _, tc := range []struct {
		family string
		n      int
	}{{"wheel", 4}, {"grid", 1}, {"chain", 1}} {
		if _, err := ScalePipeline(tc.family, tc.n, ScaleSimulate); err != nil {
			t.Errorf("%s at n = %d: %v", tc.family, tc.n, err)
		}
	}
}
