// Package mst implements distributed minimum-spanning-tree algorithms on
// the CONGEST simulator:
//
//   - ShortcutBoruvka: the framework algorithm behind Theorem 1 — Borůvka
//     phases whose fragment-wise min-edge aggregation and merge
//     dissemination run over tree-restricted shortcuts;
//   - baselines: the same algorithm with empty shortcuts (naive part-
//     internal flooding) and a Garay-Kutten-Peleg-flavored O(D+√n) two-phase
//     algorithm (fragment growth, then a congest.Pipecast convergecast of
//     the inter-fragment candidate edges to a root).
//
// Every variant replays one sequential Borůvka trace
// (partition.BoruvkaTrace) through one per-phase routine,
// congest.ReplayBoruvkaPhase: the trace's fragments are the parts each
// phase aggregates over, and its per-fragment lightest outgoing edges are
// what the aggregations must find. All variants produce the exact MST
// under the canonical edge order and are verified against sequential
// Kruskal.
package mst

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

// RunStats reports a distributed MST run.
type RunStats struct {
	EdgeIDs []int   // MST edges, sorted
	Weight  float64 // total weight
	Phases  int

	// CommRounds counts simulated communication rounds: aggregation
	// quiet-points, per-phase constant overheads, and any provider rounds
	// that were measured on the engine (Rounds.Simulated).
	CommRounds int
	// ChargedRounds books the providers' analytic construction charges
	// (Rounds.Charged) — e.g. the Õ(q) bound for the [HIZ16a]-style
	// construction, or the flooding construction's framework budget.
	ChargedRounds int
	Messages      int
}

// Provider is the unified shortcut-provider type of the pipeline layer
// (see package pipeline): it yields a shortcut for the current fragment
// family plus the two-ledger round cost of obtaining it, which the Borůvka
// loop books into CommRounds/ChargedRounds respectively.
type Provider = pipeline.Provider

// Provider constructors, re-exported from the pipeline layer for the many
// callers that reach them through this package.
var (
	ObliviousProvider = pipeline.Oblivious
	EmptyProvider     = pipeline.Empty
	FloodProvider     = pipeline.Flood
	AutoFloodProvider = pipeline.AutoFlood
)

// provide invokes the provider for a fragment family and books its
// two-ledger cost into the run's matching fields.
func provide(provider Provider, p *partition.Parts, stats *RunStats) (*shortcut.Shortcut, error) {
	s, cost, err := provider(p)
	if err != nil {
		return nil, fmt.Errorf("mst: shortcut provider: %w", err)
	}
	stats.CommRounds += cost.Simulated
	stats.ChargedRounds += cost.Charged
	return s, nil
}

// Options configures how ShortcutBoruvka realizes its fragment-wise
// aggregations.
type Options struct {
	// Simulate runs every aggregation message-level on the CONGEST engine
	// (the default everywhere the tables measure rounds). When false, the
	// aggregation fixed points are read off the sequential Borůvka trace —
	// the identical per-fragment minima every member would learn — and each
	// aggregation is booked into ChargedRounds at the shortcut's measured
	// quality (the framework's O(b·d_T + c) budget for one part-wise
	// aggregation). The two-ledger convention holds in both modes: nothing
	// engine-measured lands in ChargedRounds and vice versa. The analytic
	// mode is what lets the zero-witness pipeline finish an MST on a
	// 10⁶-node grid, where simulating Θ(diameter) rounds across every
	// phase is days of wall-clock.
	Simulate bool
}

// ShortcutBoruvka runs Borůvka's algorithm with fragment-wise aggregation
// over shortcuts from the provider, simulating every aggregation on the
// engine. See ShortcutBoruvkaOpts for the analytic-aggregation variant.
func ShortcutBoruvka(g *graph.Graph, provider Provider) (*RunStats, error) {
	return ShortcutBoruvkaOpts(g, provider, Options{Simulate: true})
}

// ShortcutBoruvkaOpts runs Borůvka's algorithm with fragment-wise
// aggregation over shortcuts from the provider. The environment (this
// function) holds the fragment bookkeeping as the sequential Borůvka trace
// (partition.BoruvkaTrace) and replays it phase by phase through
// congest.ReplayBoruvkaPhase; every information flow between nodes is
// either simulated message passing (aggregations, counted in CommRounds) or
// charged per the framework's proven bounds (ChargedRounds), per opts.
func ShortcutBoruvkaOpts(g *graph.Graph, provider Provider, opts Options) (*RunStats, error) {
	if g.N() == 0 {
		return &RunStats{}, nil
	}
	trace, final, err := partition.BoruvkaTrace(g, maxPhases)
	if err != nil {
		return nil, fmt.Errorf("mst: %w", err)
	}
	r := newReplay(g)
	stats := r.stats
	var rank []uint64
	if opts.Simulate {
		rank = congest.EdgeRanks(g)
	}
	// Family i is the fragments at the start of phase i, and phase i runs
	// once family i+1 exists: its closing relabel (every node must learn its
	// merged fragment) runs over family i+1's shortcut, and the network
	// keeps that shortcut for phase i+1. So the provider runs once per
	// family; a second invocation would both recompute and double-charge
	// the construction. A single merged fragment needs no relabel, since
	// the MST is then complete. Analytic mode charges each aggregation at
	// its shortcut's measured quality (the framework's O(b·d_T + c) budget).
	var cur *congest.Fragments
	for i := 0; i <= len(trace); i++ {
		p := final
		if i < len(trace) {
			p = trace[i].Parts(g)
		}
		var next *congest.Fragments
		if p.NumParts() > 1 {
			s, err := provide(provider, p, stats)
			if err != nil {
				return nil, err
			}
			next = &congest.Fragments{Parts: p, S: s}
			if !opts.Simulate {
				next.Charge = s.Measure().Quality
			}
		}
		if i > 0 {
			c, err := congest.ReplayBoruvkaPhase(g, rank, &trace[i-1], cur, next, opts.Simulate)
			if err != nil {
				return nil, fmt.Errorf("mst: phase %d: %w", i-1, err)
			}
			stats.CommRounds += c.EffectiveRounds
			stats.ChargedRounds += c.ChargedRounds
			stats.Messages += c.Stats.Messages
			r.merge(&trace[i-1])
		}
		cur = next
	}
	// Completeness: Borůvka stops early when no fragment can merge (the
	// graph is disconnected). The chosen edges are then a spanning forest,
	// not the MST — surface that instead of returning it as if the run
	// finished (the same zero-masquerade class the BFS flood fixed).
	if final.NumParts() > 1 {
		return nil, &congest.IncompleteError{Protocol: "MST", Rounds: stats.CommRounds, Budget: stats.Phases,
			Detail: fmt.Sprintf("halted with %d fragments after %d phases (disconnected graph)",
				final.NumParts(), stats.Phases)}
	}
	return r.result(), nil
}

// maxPhases bounds the replayed trace. Borůvka at least halves the
// fragments with an outgoing edge every phase, so a trace ends within
// ⌈log₂ n⌉+1 phases long before this.
const maxPhases = 2 * 64

// replay collects the MST a replayed Borůvka trace chooses: every phase
// merges each fragment along its lightest outgoing edge, the trace's Best.
type replay struct {
	g      *graph.Graph
	chosen []bool
	stats  *RunStats
}

func newReplay(g *graph.Graph) *replay {
	return &replay{g: g, chosen: make([]bool, g.M()), stats: &RunStats{}}
}

// merge books one phase: every fragment's Best joins the MST.
func (r *replay) merge(ph *partition.BoruvkaPhase) {
	for _, id := range ph.Best {
		r.choose(int(id))
	}
	r.stats.Phases++
}

// choose adds an MST edge once; -1 (a fragment with no outgoing edge) and
// repeats (two fragments picking the edge between them) are ignored.
func (r *replay) choose(id int) {
	if id != -1 && !r.chosen[id] {
		r.chosen[id] = true
		r.stats.Weight += r.g.Edge(id).W
	}
}

// result fills in the chosen edges, ascending.
func (r *replay) result() *RunStats {
	r.stats.EdgeIDs = make([]int, 0, r.g.N()-1)
	for id, c := range r.chosen {
		if c {
			r.stats.EdgeIDs = append(r.stats.EdgeIDs, id)
		}
	}
	return r.stats
}
