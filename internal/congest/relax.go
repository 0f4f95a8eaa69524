package congest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// RelaxResult reports a distance-relaxation run.
type RelaxResult struct {
	// Dist is the per-vertex best-known distance when the round budget ran
	// out: the pointwise minimum over channel-graph paths of
	// init[u] + Σ weights along the path.
	Dist  []float64
	Stats Stats
	// EffectiveRounds is the number of rounds until the relaxation flood
	// went quiet. The run executes a fixed budget (nodes cannot detect
	// global quiescence), so Stats.Rounds exceeds this.
	EffectiveRounds int
	Budget          int
}

// RelaxPartwise runs one phase of part-wise distance relaxation: starting
// from the tentative distances init (+Inf for "unknown"), it floods
// improved distances along each part's induced edges plus its shortcut
// edges until every vertex holds the channel-graph fixed point
//
//	dist(v) = min over channel-graph paths u⇝v of init(u) + Σ weights(e).
//
// This is the SSSP analogue of the part-wise aggregation subproblem: one
// (part, distance) message per channel per round, so congested shortcut
// edges serialize exactly as the congestion parameter predicts, and the
// effective round count is the quantity the framework bounds by
// Õ(quality). Weights are indexed by edge ID (typically the (1+ε)-rounded
// weights of the SSSP pipeline) and must be non-negative; both endpoints
// of an edge know its weight, so messages carry the sender's distance and
// the receiver adds the traversal cost.
//
// The protocol is round-driven (RoundFunc): a node-round is a plain
// function call on shared slab state, so a whole run performs a constant
// number of allocations. The round budget starts at RelaxBudget of the
// shortcut's measurement and doubles until the flood converges (checked
// against RelaxOracle, the environment's ground truth); the converged
// run's quiet-point is reported.
//
// Callers running many phases over the same (g, p, s) should build a
// Relaxer once instead: RelaxPartwise rebuilds the channel structure and
// re-measures the shortcut on every call.
func RelaxPartwise(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, weights, init []float64) (*RelaxResult, error) {
	return NewRelaxer(g, p, s).Relax(weights, init)
}

// RelaxBudget is the framework's per-primitive round budget for a shortcut
// of the given measurement: the estimate simulated relaxation starts from,
// and the per-phase charge the analytic SSSP fast path books.
func RelaxBudget(m shortcut.Measurement) int {
	return m.Quality + 2*m.TreeDiameter + 8
}

// Relaxer runs part-wise relaxation phases over a fixed (graph, parts,
// shortcut) triple, reusing the channel CSR, the measured round budget and
// the fixed-point oracle's scratch across phases. It is not safe for
// concurrent use.
type Relaxer struct {
	g           *graph.Graph
	partsOnEdge func(int) []int32
	oracle      *RelaxOracle
	budget      int
}

// NewRelaxer precomputes the channel structure and round budget.
func NewRelaxer(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *Relaxer {
	partsOnEdge := buildEdgeChannels(g, p, s)
	return &Relaxer{
		g:           g,
		partsOnEdge: partsOnEdge,
		oracle:      newRelaxOracle(g, partsOnEdge),
		budget:      RelaxBudget(s.Measure()),
	}
}

// Relax runs one relaxation phase (see RelaxPartwise).
func (r *Relaxer) Relax(weights, init []float64) (*RelaxResult, error) {
	g := r.g
	if err := checkRelaxInput(g, weights); err != nil {
		return nil, err
	}
	if len(init) != g.N() {
		return nil, fmt.Errorf("congest: %d initial distances for %d vertices", len(init), g.N())
	}
	want := append([]float64(nil), init...)
	r.oracle.FixedPoint(weights, want)
	var res *RelaxResult
	err := (*Adversary)(nil).converge("Relax", r.budget, func(budget int) (err error) {
		res, err = runRelax(g, r.partsOnEdge, weights, init, want, budget)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkRelaxInput rejects a weight vector of the wrong length or with a
// negative or NaN entry.
func checkRelaxInput(g *graph.Graph, weights []float64) error {
	if len(weights) != g.M() {
		return fmt.Errorf("congest: %d weights for %d edges", len(weights), g.M())
	}
	for id, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("congest: edge %d has weight %v", id, w)
		}
	}
	return nil
}

// runRelax runs the relaxation flood for a fixed round budget and checks
// the final distances against want, reporting a mismatch as an
// *IncompleteError.
func runRelax(g *graph.Graph, partsOnEdge func(int) []int32, weights, init, want []float64, budget int) (*RelaxResult, error) {
	n := g.N()
	finalDist := make([]float64, n)
	for v := range finalDist {
		finalDist[v] = math.Inf(1)
	}
	// Per-node protocol state lives in shared slab arrays (mirroring the
	// aggregation protocol): channels in (port, part) order per node, dirty
	// flags per channel, one sent-round slot per port.
	type channel struct{ port, part int32 }
	type nodeState struct {
		chOff, chEnd int32 // into channels/dirty
		dist         float64
		round        int32
	}
	totCh := 0
	for id := 0; id < g.M(); id++ {
		totCh += 2 * len(partsOnEdge(id))
	}
	channels := make([]channel, 0, totCh)
	dirty := make([]bool, totCh)
	sentRound := make([]int32, 0, totCh)
	state := make([]nodeState, n)
	for v := 0; v < n; v++ {
		st := &state[v]
		st.chOff = int32(len(channels))
		st.dist = init[v]
		for port, a := range g.Adj(v) {
			sentRound = append(sentRound, -1)
			for _, pi := range partsOnEdge(a.ID) {
				channels = append(channels, channel{int32(port), pi})
			}
		}
		st.chEnd = int32(len(channels))
		if !math.IsInf(st.dist, 1) {
			for ci := st.chOff; ci < st.chEnd; ci++ {
				dirty[ci] = true
			}
		}
	}
	portOff := make([]int32, n+1) // node -> offset into sentRound
	for v := 0; v < n; v++ {
		portOff[v+1] = portOff[v] + int32(g.Degree(v))
	}
	step := func(nd *Node, msgs []Message) bool {
		st := &state[nd.ID]
		// Fold in the previous round's deliveries: the sender's distance
		// plus the traversal cost of the edge it arrived on.
		for _, msg := range msgs {
			cand := WordFloat64(msg.Payload[1]) + weights[msg.Edge]
			if cand >= st.dist {
				continue
			}
			st.dist = cand
			for ci := st.chOff; ci < st.chEnd; ci++ {
				if int(channels[ci].port) != msg.Port {
					dirty[ci] = true
				}
			}
		}
		if int(st.round) == budget {
			finalDist[nd.ID] = st.dist
			return false
		}
		// One pending update per port per round, in (port, part) channel
		// order; remaining dirty channels wait for later rounds (the
		// congestion serialization).
		sent := sentRound[portOff[nd.ID]:portOff[nd.ID+1]]
		for ci := st.chOff; ci < st.chEnd; ci++ {
			ch := channels[ci]
			if !dirty[ci] || sent[ch.port] == st.round {
				continue
			}
			nd.Send(int(ch.port), Words{uint64(ch.part), Float64Word(st.dist)})
			dirty[ci] = false
			sent[ch.port] = st.round
		}
		st.round++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, err
	}
	if !slices.Equal(finalDist, want) {
		return nil, &IncompleteError{Protocol: "Relax", Rounds: stats.Rounds, Budget: budget,
			Detail: "final distances differ from the channel-graph fixed point"}
	}
	return &RelaxResult{
		Dist:            finalDist,
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
		Budget:          budget,
	}, nil
}

// RelaxBellmanFord runs plain synchronous distributed Bellman–Ford over
// every edge of g: the naive SSSP baseline. Each round, every node whose
// tentative distance improved broadcasts it; the flood settles in exactly
// as many rounds as the largest hop count over minimum-weight paths (the
// quantity graph.Dijkstra reports as Hops). Budgeting and convergence
// checking mirror RelaxPartwise.
func RelaxBellmanFord(g *graph.Graph, weights, init []float64) (*RelaxResult, error) {
	if err := checkRelaxInput(g, weights); err != nil {
		return nil, err
	}
	if len(init) != g.N() {
		return nil, fmt.Errorf("congest: %d initial distances for %d vertices", len(init), g.N())
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
