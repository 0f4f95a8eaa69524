package congest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// RelaxResult reports a naive Bellman–Ford relaxation run.
type RelaxResult struct {
	// Dist is the per-vertex best-known distance when the round budget ran
	// out: the pointwise minimum over paths of init[u] + Σ weights along
	// the path.
	Dist  []float64
	Stats Stats
	// EffectiveRounds is the number of rounds until the relaxation flood
	// went quiet. The run executes a fixed budget (nodes cannot detect
	// global quiescence), so Stats.Rounds exceeds this.
	EffectiveRounds int
	Budget          int
}

// checkRelaxInput rejects, before any round runs, a weight vector of the
// wrong length or with a negative or NaN entry, and an initial-distance
// vector (one per source) of the wrong length or with a NaN entry: a NaN
// candidate passes every improvement test, so the flood could never match
// its fixed point and would retry to the end of its doubling budget.
func checkRelaxInput(g *graph.Graph, weights []float64, init ...[]float64) error {
	if len(weights) != g.M() {
		return fmt.Errorf("congest: %d weights for %d edges", len(weights), g.M())
	}
	for id, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("congest: edge %d has weight %v", id, w)
		}
	}
	for s, iv := range init {
		if len(iv) != g.N() {
			return fmt.Errorf("congest: source %d has %d initial distances for %d vertices", s, len(iv), g.N())
		}
		for v, d := range iv {
			if math.IsNaN(d) {
				return fmt.Errorf("congest: source %d has initial distance %v at vertex %d", s, d, v)
			}
		}
	}
	return nil
}

// RelaxBellmanFord runs plain synchronous distributed Bellman–Ford over
// every edge of g: the naive SSSP baseline. Each round, every node whose
// tentative distance improved broadcasts it; the flood settles in exactly
// as many rounds as the largest hop count over minimum-weight paths (the
// quantity graph.Dijkstra reports as Hops). The round budget starts at 16
// and doubles until the flood reaches the sequential fixed point.
func RelaxBellmanFord(g *graph.Graph, weights, init []float64) (*RelaxResult, error) {
	if err := checkRelaxInput(g, weights, init); err != nil {
		return nil, err
	}
	want := append([]float64(nil), init...)
	newRelaxOracle(g, func(int) []int32 { return oneChannel }).FixedPoint(weights, want)
	n := g.N()
	budget := 16
	for attempt := 0; attempt < 16; attempt++ {
		res, converged, err := runBFRelax(g, weights, init, want, budget)
		if err != nil {
			return nil, err
		}
		if converged {
			res.Budget = budget
			return res, nil
		}
		if budget > 4*n {
			break
		}
		budget *= 2
	}
	return nil, &IncompleteError{Protocol: "RelaxBellmanFord", Budget: budget,
		Detail: "flood failed to converge within the doubling budget"}
}

// oneChannel is the degenerate channel list of the naive baseline: every
// edge carries a single flow.
var oneChannel = []int32{0}

func runBFRelax(g *graph.Graph, weights, init, want []float64, budget int) (*RelaxResult, bool, error) {
	n := g.N()
	finalDist := make([]float64, n)
	dist := make([]float64, n)
	copy(dist, init)
	pending := make([]bool, n) // improved since last broadcast
	for v := range pending {
		pending[v] = !math.IsInf(dist[v], 1)
	}
	round := make([]int32, n)
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		for _, msg := range msgs {
			if cand := WordFloat64(msg.Payload[0]) + weights[msg.Edge]; cand < dist[v] {
				dist[v] = cand
				pending[v] = true
			}
		}
		if int(round[v]) == budget {
			finalDist[v] = dist[v]
			return false
		}
		if pending[v] {
			nd.Broadcast(Words{Float64Word(dist[v])})
			pending[v] = false
		}
		round[v]++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, false, err
	}
	converged := true
	for v := 0; v < n; v++ {
		if finalDist[v] != want[v] {
			converged = false
		}
	}
	res := &RelaxResult{Dist: finalDist, Stats: stats, EffectiveRounds: stats.LastActiveRound}
	return res, converged, nil
}

// RelaxOracle is the sequential fixed point of part-wise relaxation: a
// potential-initialized Dijkstra over the edges that carry at least one
// channel. Simulated relaxation checks every attempt against it, and the
// analytic SSSP phase runs it in place of the protocol. Both accumulate
// path weights source-to-target, so their distances are bit-identical.
// The heap and done marks are reused across calls, so a warm FixedPoint
// allocates nothing; an oracle is not safe for concurrent use.
type RelaxOracle struct {
	g         *graph.Graph
	onChannel []bool // per edge: carries at least one (part, edge) channel
	heap      graph.MinDistHeap
	done      []bool
}

// NewRelaxOracle builds the relaxation oracle over the channel graph of
// (g, p, s).
func NewRelaxOracle(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *RelaxOracle {
	return newRelaxOracle(g, buildEdgeChannels(g, p, s))
}

func newRelaxOracle(g *graph.Graph, partsOnEdge func(int) []int32) *RelaxOracle {
	o := &RelaxOracle{g: g, onChannel: make([]bool, g.M()), done: make([]bool, g.N())}
	for id := range o.onChannel {
		o.onChannel[id] = len(partsOnEdge(id)) > 0
	}
	return o
}

// FixedPoint lowers dist in place to the channel-graph fixed point
//
//	dist(v) = min over channel-graph paths u⇝v of dist(u) + Σ weights(e)
//
// and reports whether any entry decreased.
func (o *RelaxOracle) FixedPoint(weights, dist []float64) bool {
	o.heap.Reset(dist)
	for v := range dist {
		o.done[v] = false
		if !math.IsInf(dist[v], 1) {
			o.heap.Push(v)
		}
	}
	changed := false
	for o.heap.Len() > 0 {
		v := o.heap.Pop()
		if o.done[v] {
			continue
		}
		o.done[v] = true
		for _, a := range o.g.Adj(v) {
			if !o.onChannel[a.ID] {
				continue
			}
			if cand := dist[v] + weights[a.ID]; cand < dist[a.To] {
				dist[a.To] = cand
				changed = true
				o.heap.Push(a.To)
			}
		}
	}
	return changed
}
