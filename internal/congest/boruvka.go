package congest

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// EdgeRanks maps each edge to its rank in the canonical graph.EdgeLess
// order, so a min aggregation over single-word keys finds the lightest edge
// (an O(log n)-bit edge name).
func EdgeRanks(g *graph.Graph) []uint64 {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return graph.EdgeLess(g, order[a], order[b]) })
	rank := make([]uint64, g.M())
	for r, id := range order {
		rank[id] = uint64(r)
	}
	return rank
}

// Fragments is one Borůvka fragment family as a replayed phase aggregates
// over it: the fragments, the shortcut their aggregations run over, and
// Charge, the analytic-mode price of one part-wise aggregation over them
// (unread in simulate mode).
type Fragments struct {
	Parts  *partition.Parts
	S      *shortcut.Shortcut
	Charge int
}

// PhaseCost is one replayed Borůvka phase's cost. Exactly one round ledger
// is populated per the run's mode.
type PhaseCost struct {
	Stats           Stats
	EffectiveRounds int
	ChargedRounds   int
}

// ReplayBoruvkaPhase runs phase ph of a sequential Borůvka trace
// (partition.BoruvkaTrace) in-network, as the paper prices a phase (§1.3.3,
// Corollary 1): one round in which neighbours exchange fragment IDs, so
// every vertex knows its lightest outgoing edge (LightestOutgoing); a
// part-wise AggregateMin of those edges' ranks (EdgeRanks) over the phase's
// fragments cur, after which every member knows its fragment's Best; and,
// unless next is nil, a min-ID AggregateMin over the merged fragments next,
// after which every vertex knows its new fragment. Each aggregation checks
// itself against the fixed point the trace determines, so the first one is
// the check against Best. Simulate mode runs both on the engine and books
// the exchange round plus their quiet points; analytic mode charges
// 1 + cur.Charge + next.Charge. rank is read in simulate mode only.
func ReplayBoruvkaPhase(g *graph.Graph, rank []uint64, ph *partition.BoruvkaPhase, cur, next *Fragments, simulate bool) (PhaseCost, error) {
	if !simulate {
		c := PhaseCost{ChargedRounds: 1 + cur.Charge}
		if next != nil {
			c.ChargedRounds += next.Charge
		}
		return c, nil
	}
	keys := make([]uint64, g.N())
	for v, id := range ph.LightestOutgoing(g) {
		keys[v] = math.MaxUint64
		if id != -1 {
			keys[v] = rank[id]
		}
	}
	best, err := AggregateMin(g, cur.Parts, cur.S, keys)
	if err != nil {
		return PhaseCost{}, fmt.Errorf("congest: lightest-edge aggregation: %w", err)
	}
	c := PhaseCost{Stats: best.Stats, EffectiveRounds: 1 + best.EffectiveRounds}
	if next != nil {
		for v := range keys {
			keys[v] = uint64(v)
		}
		relabel, err := AggregateMin(g, next.Parts, next.S, keys)
		if err != nil {
			return PhaseCost{}, fmt.Errorf("congest: relabel aggregation: %w", err)
		}
		c.Stats.Add(relabel.Stats)
		c.EffectiveRounds += relabel.EffectiveRounds
	}
	return c, nil
}

// DecomposeResult reports an in-network Borůvka fragment decomposition.
// Exactly one round ledger is populated per the run's mode.
type DecomposeResult struct {
	Parts *partition.Parts
	// Phases is the number of merge phases actually executed (the run ends
	// early once no fragment has an outgoing edge).
	Phases int
	// Stats accumulates every phase's two in-fragment floods.
	Stats Stats
	// EffectiveRounds: measured rounds of all phases in simulate mode (per
	// phase, the fragment-ID exchange round plus both floods' quiet points).
	EffectiveRounds int
	// ChargedRounds is the analytic-mode total, which bounds what simulate
	// mode measures: per phase 1 + (2·e(Fᵢ) + 1) + (2·e(Fᵢ₊₁) + 1), e(F) the
	// largest eccentricity of a fragment's first member inside its fragment.
	ChargedRounds int
}

// BoruvkaDecompose computes the Borůvka fragment decomposition in-network:
// the part family the cap search, the MST and the self-sufficient SSSP
// pipeline feed to the shortcut framework. Every phase is
// ReplayBoruvkaPhase over the empty shortcut (shortcut.Empty), so both of
// its floods stay inside the fragments; no message crosses the tree's root.
// The sequential trace (partition.BoruvkaTrace) is the convergence oracle:
// every flood checks itself against the fixed point the trace determines,
// and the returned Parts are the trace's, so both modes hand downstream
// consumers identical fragments. Analytic mode charges each flood over a
// family F at 2·e(F) + 1, e(F) being F's empty shortcut's MaxAugmentedEcc,
// computed once per family: a flood inside a fragment of strong diameter
// D ≤ 2e goes quiet within D + 1 rounds.
//
// Worst case: a fragment of s vertices can have strong diameter s − 1, so
// a phase takes at most 2·(max fragment size) + 3 rounds and p phases at
// most p·(2n + 3). The root-routed convergecast and broadcast this
// replaced streamed all n phase-0 labels down the tree one per round, at
// least n rounds on any input (2n or more on every instance measured), so
// flooding inside fragments costs at most a factor of about
// 2p ≤ 2·(⌈log₂ n⌉ + 1) more.
func BoruvkaDecompose(g *graph.Graph, t *graph.Tree, phases int, simulate bool) (*DecomposeResult, error) {
	if t.G != g {
		return nil, fmt.Errorf("congest: decomposition tree belongs to a different graph")
	}
	trace, parts, err := partition.BoruvkaTrace(g, phases)
	if err != nil {
		return nil, fmt.Errorf("congest: boruvka decomposition: %w", err)
	}
	res := &DecomposeResult{Parts: parts, Phases: len(trace)}
	if len(trace) == 0 {
		return res, nil
	}
	var rank []uint64
	if simulate {
		rank = EdgeRanks(g)
	}
	// Family i is the fragments at the start of phase i; phase i runs once
	// families i and i+1 exist.
	var cur *Fragments
	for i := 0; i <= len(trace); i++ {
		p, frags := parts, parts.NumParts()
		if i < len(trace) {
			frags = trace[i].NumFrags
		}
		next := &Fragments{Charge: 1}
		// Analytic mode reads only the charge, and a family of single
		// vertices (phase 0's) has e = 0, so it is not built.
		if simulate || frags < g.N() {
			if i < len(trace) {
				p = trace[i].Parts(g)
			}
			next.Parts, next.S = p, shortcut.Empty(g, t, p)
			if !simulate {
				e, err := next.S.MaxAugmentedEcc()
				if err != nil {
					return nil, fmt.Errorf("congest: boruvka decomposition charge: %w", err)
				}
				next.Charge = 2*e + 1
			}
		}
		if i > 0 {
			c, err := ReplayBoruvkaPhase(g, rank, &trace[i-1], cur, next, simulate)
			if err != nil {
				return nil, fmt.Errorf("congest: boruvka decomposition phase %d: %w", i-1, err)
			}
			res.Stats.Add(c.Stats)
			res.EffectiveRounds += c.EffectiveRounds
			res.ChargedRounds += c.ChargedRounds
		}
		cur = next
	}
	return res, nil
}
