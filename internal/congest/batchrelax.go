package congest

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// BatchRelaxResult reports a batched k-source distance-relaxation run.
type BatchRelaxResult struct {
	// Dist[s] is source s's per-vertex fixed point: the pointwise minimum
	// over channel-graph paths of init[s][u] + Σ weights along the path —
	// bit-identical to k single-source (k=1) runs, since every source's
	// tokens traverse the same channels with the same weights.
	Dist  [][]float64
	Stats Stats
	// EffectiveRounds is the quiet-point of the whole batch: the round
	// after which no token of any source moved. The run executes a fixed
	// budget (nodes cannot detect global quiescence), so Stats.Rounds
	// exceeds this. The pipelining win is that it grows like h+k, not
	// k·h: a port queues at most one pending token per source, so once the
	// first tag drains the remaining sources stream behind it one round
	// apart, exactly the Pipecast multi-token schedule.
	EffectiveRounds int
	Budget          int
}

// BatchRelaxBudget is the framework's per-phase round budget for relaxing
// k sources at once over a shortcut of the given measurement: the
// single-source estimate quality + 2·treeDiameter + 8, plus one
// pipelining round per extra source tag queued on a port — O(h+k) where
// the sequential schedule pays k·O(h). It is both the estimate the
// simulated batch starts from and the per-phase charge the analytic SSSP
// books; k=1 is the single-source budget.
func BatchRelaxBudget(m shortcut.Measurement, k int) int {
	return m.Quality + 2*m.TreeDiameter + 8 + k - 1
}

// BatchRelaxer runs part-wise relaxation phases over a fixed (graph,
// parts, shortcut) triple, reusing the channel mask, the fixed-point
// oracle's scratch and the measured budget across phases. One phase floods
// k sources' tentative distances as tag-multiplexed tokens (tag = source
// index) over the parts' induced edges plus their shortcut edges, one
// token per port per round; k=1 is single-source relaxation, the SSSP
// analogue of the part-wise aggregation subproblem.
//
// The multiplexing is per (port, source), not per (part, edge) channel:
// relaxation tokens are value-only — the receiver folds the delivered
// distance by min and never consults which part a token travels for — so
// one token carries a port's update for every part sharing it, and an
// edge matters only in whether it carries a channel at all (the oracle's
// per-edge mask). The distinct streams through a port are the k sources,
// and that is what the batch serializes: congestion k per port, dilation
// h, hence the O(h+k) quiet point the budget tracks.
//
// A BatchRelaxer is not safe for concurrent use.
type BatchRelaxer struct {
	g      *graph.Graph
	oracle *RelaxOracle
	m      shortcut.Measurement
}

// NewBatchRelaxer precomputes the channel mask and measures the shortcut
// once.
func NewBatchRelaxer(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *BatchRelaxer {
	return &BatchRelaxer{g: g, oracle: NewRelaxOracle(g, p, s), m: s.Measure()}
}

// Budget returns BatchRelaxBudget for k sources over this relaxer's
// shortcut measurement.
func (r *BatchRelaxer) Budget(k int) int { return BatchRelaxBudget(r.m, k) }

// Relax runs one batched relaxation phase: init[s] is source s's tentative
// distance vector (+Inf for "unknown"), and the result's Dist[s] is its
// channel-graph fixed point
//
//	dist(v) = min over channel-graph paths u⇝v of init[s](u) + Σ weights(e).
//
// Weights are indexed by edge ID (typically the (1+ε)-rounded weights of
// the SSSP pipeline) and must be non-negative; both endpoints of an edge
// know its weight, so tokens carry the sender's distance and the receiver
// adds the traversal cost. The protocol is round-driven (RoundFunc), so a
// run performs a constant number of allocations. The round budget starts
// at BatchRelaxBudget and doubles until every source's flood converges
// against the sequential fixed point (RelaxOracle, the environment's
// ground truth); the converged run's quiet-point is reported.
func (r *BatchRelaxer) Relax(weights []float64, init [][]float64) (*BatchRelaxResult, error) {
	g := r.g
	k := len(init)
	if k == 0 {
		return nil, fmt.Errorf("congest: batched relaxation needs at least one source")
	}
	if err := checkRelaxInput(g, weights, init...); err != nil {
		return nil, err
	}
	n := g.N()
	want := make([][]float64, k)
	slab := make([]float64, k*n)
	for s := range want {
		want[s] = slab[s*n : (s+1)*n : (s+1)*n]
		copy(want[s], init[s])
		r.oracle.FixedPoint(weights, want[s])
	}
	var res *BatchRelaxResult
	err := (*Adversary)(nil).converge("BatchRelax", r.Budget(k), func(budget int) (err error) {
		res, err = runBatchRelax(g, r.oracle.onChannel, weights, init, want, budget)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// tagQueues holds every port's pending source tags: a dirty bitset of kw
// words per port, one bit per tag with an update still to send, and the
// number of bits set, so an idle port costs one compare and the lowest
// pending tag is one trailing-zeros count per word.
type tagQueues struct {
	kw      int
	dirty   []uint64 // port p's tags are dirty[p*kw : (p+1)*kw]
	pending []int32  // per port: tags set in its window
}

// mark queues tag src on port p.
//
//congest:hotpath
//congest:pure
func (q *tagQueues) mark(p int32, src int) {
	w := &q.dirty[int(p)*q.kw+src>>6]
	if bit := uint64(1) << (src & 63); *w&bit == 0 {
		*w |= bit
		q.pending[p]++
	}
}

// pop dequeues and returns port p's lowest pending tag; p must have one.
//
//congest:hotpath
//congest:pure
func (q *tagQueues) pop(p int32) int {
	window := q.dirty[int(p)*q.kw : int(p+1)*q.kw]
	i := 0
	for window[i] == 0 {
		i++
	}
	bit := bits.TrailingZeros64(window[i])
	window[i] &^= 1 << bit
	q.pending[p]--
	return i<<6 + bit
}

// batchFold folds one delivered token into the receiving node's k-slot
// distance row and, on improvement, queues the source on every
// channel-carrying port of the node except the arrival port. row is the
// node's dist[v*k : (v+1)*k] window; active and the pOff/pEnd window are
// the node's ports; the return reports whether the token improved
// anything.
//
//congest:hotpath
//congest:pure
func batchFold(row []float64, q *tagQueues, active []bool, pOff, pEnd int32, arrival, src int, cand float64) bool {
	if cand >= row[src] {
		return false
	}
	row[src] = cand
	for pi := pOff; pi < pEnd; pi++ {
		if active[pi] && int(pi-pOff) != arrival {
			q.mark(pi, src)
		}
	}
	return true
}

// runBatchRelax runs the batched flood for a fixed round budget and checks
// every source's final distances against want, reporting a mismatch as an
// *IncompleteError.
func runBatchRelax(g *graph.Graph, onChannel []bool, weights []float64, init, want [][]float64, budget int) (*BatchRelaxResult, error) {
	n := g.N()
	k := len(init)
	// finalDist is laid out [s*n+v] so the result carves into per-source
	// slices; the working dist is [v*k+s] so a node's k tags share a cache
	// line in the kernel.
	finalDist := make([]float64, k*n)
	dist := make([]float64, n*k)
	for s := 0; s < k; s++ {
		for v := 0; v < n; v++ {
			dist[v*k+s] = init[s][v]
		}
	}
	type nodeState struct {
		pOff, pEnd int32 // the node's ports, indexes into active and q
		round      int32
	}
	// Ports in global CSR order; a port participates iff its edge carries
	// at least one channel.
	totPorts := 0
	for v := 0; v < n; v++ {
		totPorts += g.Degree(v)
	}
	active := make([]bool, totPorts)
	kw := (k + 63) >> 6
	q := &tagQueues{kw: kw, dirty: make([]uint64, totPorts*kw), pending: make([]int32, totPorts)}
	state := make([]nodeState, n)
	pi := int32(0)
	for v := 0; v < n; v++ {
		st := &state[v]
		st.pOff = pi
		for _, a := range g.Adj(v) {
			active[pi] = onChannel[a.ID]
			pi++
		}
		st.pEnd = pi
		for s := 0; s < k; s++ {
			if !math.IsInf(dist[v*k+s], 1) {
				for p := st.pOff; p < st.pEnd; p++ {
					if active[p] {
						q.mark(p, s)
					}
				}
			}
		}
	}
	step := func(nd *Node, msgs []Message) bool {
		st := &state[nd.ID]
		row := dist[nd.ID*k : (nd.ID+1)*k]
		// Fold in the previous round's deliveries: token tag = source
		// index, value = sender's distance, plus the traversal cost of the
		// edge it arrived on.
		for _, msg := range msgs {
			src := int(msg.Payload[0])
			cand := WordFloat64(msg.Payload[1]) + weights[msg.Edge]
			batchFold(row, q, active, st.pOff, st.pEnd, msg.Port, src, cand)
		}
		if int(st.round) == budget {
			for s := 0; s < k; s++ {
				finalDist[s*n+nd.ID] = row[s]
			}
			return false
		}
		// One pending token per port per round, lowest source tag first;
		// the remaining tags wait for later rounds — the per-source
		// congestion serialization that pipelines the batch in h+k rounds.
		// Only channel-carrying ports ever have tags pending.
		for p := st.pOff; p < st.pEnd; p++ {
			if q.pending[p] == 0 {
				continue
			}
			src := q.pop(p)
			nd.Send(int(p-st.pOff), Words{uint64(src), Float64Word(row[src])})
		}
		st.round++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, Options{MaxRounds: budget + 64})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, k)
	for s := 0; s < k; s++ {
		out[s] = finalDist[s*n : (s+1)*n : (s+1)*n]
		if !slices.Equal(out[s], want[s]) {
			return nil, &IncompleteError{Protocol: "BatchRelax", Rounds: stats.Rounds, Budget: budget,
				Detail: fmt.Sprintf("source %d's final distances differ from the channel-graph fixed point", s)}
		}
	}
	return &BatchRelaxResult{
		Dist:            out,
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
		Budget:          budget,
	}, nil
}
