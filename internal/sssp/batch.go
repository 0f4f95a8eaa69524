package sssp

import (
	"fmt"
	"math"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// BatchResult reports a batched k-source approximate SSSP run.
type BatchResult struct {
	Srcs []int
	Eps  float64
	// Dist[i] is source Srcs[i]'s distance vector: exact under the
	// (1+ε)-rounded weights, byte-identical to what a single-source run
	// from Srcs[i] returns (both are the unique fixed point of the same
	// monotone relaxation, and every phase a converged source sits through
	// is a no-op on it).
	Dist   [][]float64
	Phases int
	// CommRounds counts simulated communication rounds: k cross-edge
	// rounds per phase (one per tag — each edge exchanges one token per
	// round) plus the batched part-wise relaxation quiet-points.
	CommRounds int
	// ChargedRounds counts analytic-mode rounds: k cross-edge rounds plus
	// the O(h+k) framework budget (congest.BatchRelaxBudget) per phase.
	ChargedRounds int
	// Messages counts simulated messages: k tokens per live edge direction
	// per cross-edge phase plus the relaxation protocol's messages.
	Messages int
	// Quality is the measured shortcut quality (the per-phase charge basis).
	Quality int
	// MaxPhaseRounds is the largest simulated quiet-point over the batched
	// phases, and PhaseBudget the framework's converged per-phase bound it
	// stayed within — the measured "O(h+k) rounds per phase, not k·O(h)"
	// claim. Analytic runs report MaxPhaseRounds 0.
	MaxPhaseRounds int
	PhaseBudget    int
}

// ApproxBatch computes (1+ε)-approximate shortest paths from all k
// sources at once: each Bellman–Ford phase relaxes every source's
// tentative distances in one batched part-wise relaxation, the k tags
// multiplexed over the same part channels (congest.BatchRelaxer) instead
// of k sequential single-source pipelines. One phase costs O(h+k) rounds —
// the Pipecast pipelining win — against k·O(h) for the sequential
// schedule, and the answers are byte-identical to k sequential runs.
// Approx is the k=1 case.
//
// The iteration runs until one phase is quiet for every source, so
// already-converged sources idle (at zero marginal rounds: a clean source
// contributes no dirty tokens) while stragglers finish.
func ApproxBatch(g *graph.Graph, srcs []int, p *partition.Parts, s *shortcut.Shortcut, opts Options) (*BatchResult, error) {
	n := g.N()
	k := len(srcs)
	if k == 0 {
		return nil, fmt.Errorf("sssp: batch needs at least one source")
	}
	for _, src := range srcs {
		if src < 0 || src >= n {
			return nil, fmt.Errorf("sssp: source %d out of range for n=%d", src, n)
		}
	}
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	// n + 2 phases always suffice: each includes a full cross-edge pass.
	maxPhases := n + 2
	rounded, err := RoundWeights(g, opts.Eps)
	if err != nil {
		return nil, err
	}
	m := s.Measure()
	charge := congest.BatchRelaxBudget(m, k)
	e := newEngine(g, rounded)
	dist := make([][]float64, k)
	slab := make([]float64, k*n)
	for i, src := range srcs {
		dist[i] = slab[i*n : (i+1)*n : (i+1)*n]
		for v := range dist[i] {
			dist[i][v] = math.Inf(1)
		}
		dist[i][src] = 0
	}
	res := &BatchResult{
		Srcs:        append([]int(nil), srcs...),
		Eps:         opts.Eps,
		Quality:     m.Quality,
		PhaseBudget: charge,
	}
	var relaxer *congest.BatchRelaxer
	var oracle *congest.RelaxOracle
	if opts.Simulate {
		relaxer = congest.NewBatchRelaxer(g, p, s)
	} else {
		oracle = congest.NewRelaxOracle(g, p, s)
	}
	for phase := 0; phase < maxPhases; phase++ {
		changed := false
		for i := 0; i < k; i++ {
			if e.crossPhase(dist[i]) {
				changed = true
			}
		}
		if opts.Simulate {
			r, err := relaxer.Relax(rounded, dist)
			if err != nil {
				return nil, fmt.Errorf("sssp: phase %d relaxation: %w", phase, err)
			}
			for i := 0; i < k; i++ {
				for v := 0; v < n; v++ {
					if r.Dist[i][v] < dist[i][v] {
						dist[i][v] = r.Dist[i][v]
						changed = true
					}
				}
			}
			res.CommRounds += k + r.EffectiveRounds
			res.Messages += k*2*e.live + r.Stats.Messages
			if r.EffectiveRounds > res.MaxPhaseRounds {
				res.MaxPhaseRounds = r.EffectiveRounds
			}
			if r.Budget > res.PhaseBudget {
				res.PhaseBudget = r.Budget
			}
		} else {
			for i := 0; i < k; i++ {
				if oracle.FixedPoint(rounded, dist[i]) {
					changed = true
				}
			}
			res.ChargedRounds += k + charge
		}
		res.Phases++
		if !changed {
			// A phase quiet for every source: all k fixed points — exact
			// distances under rounded weights — reached and paid for.
			res.Dist = dist
			return res, nil
		}
	}
	return nil, fmt.Errorf("sssp: no convergence within %d phases", maxPhases)
}
