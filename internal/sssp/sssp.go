// Package sssp implements distributed (1+ε)-approximate single-source
// shortest paths on the shortcut framework — the third optimization
// problem of the paper's headline trio (MST, min-cut, shortest path), in
// the style Ghaffari–Haeupler (arXiv:2008.03091) attach to low-congestion
// shortcuts.
//
// Algorithm: weight-rounded Bellman–Ford run as iterated part-wise
// relaxation. Edge weights are first rounded up to powers of (1+ε), so
// every computed distance over-estimates the true distance by at most the
// factor (1+ε) while message values stay O(log n)-bit describable. Each
// phase then performs
//
//  1. a cross-edge relaxation round: every node announces its tentative
//     distance to all neighbors (one synchronous round, one message per
//     edge direction), and
//  2. a part-wise relaxation: inside every part, improved distances flood
//     along the part's induced edges plus its shortcut edges to the
//     channel-graph fixed point (congest.BatchRelaxer, the SSSP analogue
//     of the part-wise aggregation subproblem).
//
// ApproxBatch runs the phase loop for k sources at once, their tokens
// tag-multiplexed over the same channels; Approx is its k=1 case.
//
// Distances only ever decrease and every value is realized by an actual
// path of the network, so the fixed point of the phase iteration is the
// exact distance under rounded weights; the achieved stretch against the
// exact oracle (graph.Dijkstra) is therefore at most 1+ε by construction.
// The phase count is bounded by the number of inter-part hops on shortest
// paths — on apex and clique-sum families a small constant — while naive
// distributed Bellman–Ford pays one round per hop of the (hop-heavy)
// shortest paths themselves.
//
// Round accounting follows the repo's two-ledger convention. Simulate mode
// runs every part-wise relaxation on the CONGEST engine and reports
// measured rounds in CommRounds. The default analytic mode (mirroring
// mincut.Approx's SimulateMST=false fast path) computes each phase's fixed
// point with congest.RelaxOracle, the sequential oracle every simulated
// relaxation is checked against, so both modes reach bit-identical
// distances. It charges each part-wise primitive the framework's
// Õ(quality) round budget in ChargedRounds — the bound the
// transshipment-boosted algorithms of the literature achieve; the simple
// flooding protocol the simulator runs is hop-bound on weighted paths, so
// it validates correctness and congestion behavior rather than the
// headline round bound (a DESIGN.md-style substitution, like min-cut's
// central 2-respecting evaluation).
package sssp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

// Options configures the approximation.
type Options struct {
	// Eps is the approximation slack (default 0.1); rounded weights
	// over-estimate each edge by at most this factor. Must be finite and
	// strictly positive (ErrInvalidOptions otherwise).
	Eps float64
	// MaxPhases aborts non-converging runs (0 = n+2, which is always
	// sufficient: each phase includes a full cross-edge pass).
	MaxPhases int
	// Simulate runs each phase's part-wise relaxation on the CONGEST
	// simulator; false computes fixed points sequentially and charges
	// rounds analytically (quality-based), for large benches.
	Simulate bool
}

// ErrInvalidOptions is wrapped by every sssp entry point when Options fail
// validation, mirroring congest.ErrInvalidOptions: errors.Is-able, with
// the offending field in the message.
var ErrInvalidOptions = errors.New("sssp: invalid options")

// normalized applies defaults and validates: the zero Eps selects the
// documented default, anything else must be a finite positive slack. NaN
// in particular fails every comparison silently, so it is rejected here
// explicitly rather than left to produce all-Inf "distances" downstream.
func (o Options) normalized() (Options, error) {
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if math.IsNaN(o.Eps) || math.IsInf(o.Eps, 0) || o.Eps < 0 {
		return o, fmt.Errorf("%w: eps %v (want finite eps > 0)", ErrInvalidOptions, o.Eps)
	}
	if o.MaxPhases < 0 {
		return o, fmt.Errorf("%w: negative MaxPhases %d", ErrInvalidOptions, o.MaxPhases)
	}
	return o, nil
}

// Result reports an approximate SSSP run.
type Result struct {
	Source int
	Eps    float64
	// Dist holds the computed distances: exact under the (1+ε)-rounded
	// weights, hence within [d, (1+ε)·d] of the true distance d.
	Dist   []float64
	Phases int
	// CommRounds counts simulated communication rounds (Simulate mode:
	// cross-edge rounds plus part-wise relaxation quiet-points).
	CommRounds int
	// ChargedRounds counts analytic-mode rounds: one per cross-edge round
	// plus the Õ(quality) framework budget per part-wise primitive.
	ChargedRounds int
	Messages      int
	// Quality is the measured shortcut quality (the per-phase charge basis).
	Quality int
	// ConstructRounds is the shortcut provider's round cost when the
	// shortcut came from one (ApproxProvided); the rounds are already
	// folded into CommRounds or ChargedRounds per the provider's ledger.
	// Zero when the shortcut was supplied by the caller.
	ConstructRounds int
}

// ApproxProvided is Approx over the unified provider layer: the shortcut
// comes from any pipeline.Provider — witness-derived, oblivious, flooding,
// or the fully self-sufficient cap search — and the provider's two-ledger
// cost is booked into the matching result fields (Rounds.Simulated into
// CommRounds, Rounds.Charged into ChargedRounds), with the combined cost
// reported as ConstructRounds.
func ApproxProvided(g *graph.Graph, src int, p *partition.Parts, provider pipeline.Provider, opts Options) (*Result, error) {
	s, cost, err := provider(p)
	if err != nil {
		return nil, fmt.Errorf("sssp: shortcut provider: %w", err)
	}
	r, err := Approx(g, src, p, s, opts)
	if err != nil {
		return nil, err
	}
	r.ConstructRounds = cost.Total()
	r.CommRounds += cost.Simulated
	r.ChargedRounds += cost.Charged
	return r, nil
}

// Approx computes (1+ε)-approximate shortest paths from src with part-wise
// relaxation over the given parts and shortcut: ApproxBatch with the one
// source src. Edge weights must be strictly positive.
func Approx(g *graph.Graph, src int, p *partition.Parts, s *shortcut.Shortcut, opts Options) (*Result, error) {
	b, err := ApproxBatch(g, []int{src}, p, s, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Source:        src,
		Eps:           b.Eps,
		Dist:          b.Dist[0],
		Phases:        b.Phases,
		CommRounds:    b.CommRounds,
		ChargedRounds: b.ChargedRounds,
		Messages:      b.Messages,
		Quality:       b.Quality,
	}, nil
}

// engine holds the cross-edge phase's scratch, shared across the k
// distance vectors of a batched run and reused across phases, so a warm
// phase allocates nothing. The tentative distances themselves are
// parameters — one vector per source — so ApproxBatch drives the same
// engine over k vectors without k copies of the scratch. The part-wise
// phase is congest's relaxation oracle (analytic mode) or protocol
// (simulate mode).
type engine struct {
	g       *graph.Graph
	rounded []float64
	next    []float64
	// live counts the edges that are not churn tombstones
	// (graph.RemoveEdge): a cross-edge round sends one token over each
	// in each direction.
	live int
}

func newEngine(g *graph.Graph, rounded []float64) *engine {
	e := &engine{g: g, rounded: rounded, next: make([]float64, g.N())}
	for id := 0; id < g.M(); id++ {
		if !g.EdgeRemoved(id) {
			e.live++
		}
	}
	return e
}

// crossPhase performs one synchronous (Jacobi) relaxation round over every
// edge of the network: new values are computed from the previous round's
// values only, exactly what one CONGEST round of neighbor exchange can do.
func (e *engine) crossPhase(dist []float64) bool {
	copy(e.next, dist)
	g := e.g
	for id := 0; id < g.M(); id++ {
		if g.EdgeRemoved(id) {
			continue
		}
		ed := g.Edge(id)
		w := e.rounded[id]
		if c := dist[ed.U] + w; c < e.next[ed.V] {
			e.next[ed.V] = c
		}
		if c := dist[ed.V] + w; c < e.next[ed.U] {
			e.next[ed.U] = c
		}
	}
	changed := false
	for v := range dist {
		if e.next[v] < dist[v] {
			changed = true
		}
	}
	copy(dist, e.next)
	return changed
}

// RoundWeights returns the per-edge weights rounded up to the next power
// of 1+eps: w ≤ rounded ≤ (1+eps)·w, so path distances over the rounded
// weights over-estimate by at most the factor 1+eps while taking only
// O(log_{1+eps} W) distinct values per scale. Weights must be strictly
// positive.
func RoundWeights(g *graph.Graph, eps float64) ([]float64, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("sssp: eps must be finite and positive, got %v", eps)
	}
	base := 1 + eps
	logBase := math.Log(base)
	out := make([]float64, g.M())
	for id := 0; id < g.M(); id++ {
		if g.EdgeRemoved(id) {
			// Churn tombstone: the arc is gone from every adjacency list,
			// so its rounded weight is never read. Leave it zero.
			continue
		}
		w := g.Edge(id).W
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("sssp: edge %d has non-positive weight %v", id, w)
		}
		r := math.Pow(base, math.Ceil(math.Log(w)/logBase))
		// Float guards: the rounded weight must stay within [w, (1+eps)·w].
		if r < w {
			r *= base
		}
		if r > w*base {
			r = w * base
		}
		out[id] = r
	}
	return out, nil
}

// NaiveRoundsFrom returns the number of synchronous rounds the naive
// distributed SSSP baseline — plain Bellman–Ford, every node announcing
// improvements to all neighbors — needs from the source of r, an
// already-computed graph.Dijkstra result: the largest settle round over
// all vertices (r.Hops) plus one final quiet round. On hop-heavy families
// (rim paths under expensive spokes) this grows linearly with n even when
// the diameter is constant.
func NaiveRoundsFrom(r *graph.SPResult) int {
	maxHops := 0
	for _, h := range r.Hops {
		if h > maxHops {
			maxHops = h
		}
	}
	return maxHops + 1
}
