package congest

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/partition"
)

// DecomposeResult reports an in-network Borůvka fragment decomposition.
// Exactly one round ledger is populated per the run's mode.
type DecomposeResult struct {
	Parts *partition.Parts
	// Phases is the number of merge phases actually executed (the run ends
	// early once a single fragment remains).
	Phases int
	// Stats accumulates every simulated protocol of the decomposition.
	Stats Stats
	// EffectiveRounds: measured rounds of all phases in simulate mode (one
	// pipelined min-convergecast of fragment-best outgoing edges plus one
	// pipelined relabeling broadcast per phase).
	EffectiveRounds int
	// ChargedRounds is the analytic-mode total: DecomposePhaseBudget per
	// phase, evaluated at each phase's actual fragment count.
	ChargedRounds int
}

// DecomposePhaseBudget is the framework's round charge for one Borůvka
// phase run on the pipelined tree layer: a k-token convergecast of the
// fragments' lightest outgoing edges up the tree plus the k-token
// relabeling broadcast back down, k = the phase's fragment count. This
// replaced the flat per-phase aggregation model (2·height + 2 regardless
// of fragment count) the SSSP self-sufficient pipeline used to charge.
func DecomposePhaseBudget(t *graph.Tree, numFrags int) int {
	return 2 * PipecastBudget(t, numFrags)
}

// BoruvkaDecompose computes the Borůvka fragment decomposition — the part
// family the self-sufficient SSSP pipeline feeds to the shortcut framework
// — fully in-network over the given spanning tree. Each phase is two
// pipelined tree protocols:
//
//   - up: every vertex contributes its lightest incident outgoing edge
//     (an edge whose other endpoint lies in a different fragment — locally
//     decidable, since vertices track their neighbors' fragment labels)
//     tagged with its fragment label; the per-fragment graph.EdgeLess
//     minima stream to the root in O(height + fragments) rounds;
//   - down: the root merges fragments exactly as sequential Borůvka does
//     and streams the old→new label mapping back, O(height + fragments);
//     every vertex relabels itself and its recorded neighbor labels, so no
//     further neighbor exchange is ever needed (initial labels are vertex
//     IDs, which neighbors know).
//
// The sequential trace (partition.BoruvkaTrace) is the convergence oracle:
// the simulated per-fragment minima are validated against each phase's
// recorded choices, and the returned Parts are the shared fixed point, so
// both modes hand downstream consumers identical fragments. In simulate
// mode the two protocols run on the engine and their measured rounds are
// the cost; analytic mode charges DecomposePhaseBudget per phase.
func BoruvkaDecompose(g *graph.Graph, t *graph.Tree, phases int, simulate bool) (*DecomposeResult, error) {
	if t.G != g {
		return nil, fmt.Errorf("congest: decomposition tree belongs to a different graph")
	}
	trace, parts, err := partition.BoruvkaTrace(g, phases)
	if err != nil {
		return nil, fmt.Errorf("congest: boruvka decomposition: %w", err)
	}
	res := &DecomposeResult{Parts: parts, Phases: len(trace)}
	if !simulate {
		for _, ph := range trace {
			res.ChargedRounds += DecomposePhaseBudget(t, ph.NumFrags)
		}
		return res, nil
	}
	edgeMin := Combiner{Name: "edgeless-min", Identity: math.MaxUint64, Fold: func(a, b uint64) uint64 {
		switch {
		case a == math.MaxUint64:
			return b
		case b == math.MaxUint64:
			return a
		case graph.EdgeLess(g, int(b), int(a)):
			return b
		default:
			return a
		}
	}}
	contrib := make([][]Token, g.N())
	backing := make([]Token, g.N())
	tokens := make([]Token, 0, g.N())
	for phi, ph := range trace {
		// Local lightest outgoing edge per vertex, tagged with the
		// vertex's fragment.
		for v, id := range ph.LightestOutgoing(g) {
			if id == -1 {
				contrib[v] = nil
				continue
			}
			backing[v] = Token{Tag: ph.Frag[v], Value: uint64(id)}
			contrib[v] = backing[v : v+1 : v+1]
		}
		up, err := Pipecast(t, ph.NumFrags, contrib, edgeMin)
		if err != nil {
			return nil, fmt.Errorf("congest: boruvka phase %d convergecast: %w", phi, err)
		}
		for f := 0; f < ph.NumFrags; f++ {
			want := uint64(math.MaxUint64)
			if ph.Best[f] != -1 {
				want = uint64(ph.Best[f])
			}
			if up.Values[f] != want {
				return nil, fmt.Errorf("congest: boruvka fragment %d converged to edge %d, sequential trace chose %d",
					f, up.Values[f], ph.Best[f])
			}
		}
		res.Stats.Add(up.Stats)
		res.EffectiveRounds += up.EffectiveRounds
		// Relabeling broadcast: old fragment label -> post-merge label.
		tokens = tokens[:0]
		for f := 0; f < ph.NumFrags; f++ {
			tokens = append(tokens, Token{Tag: int32(f), Value: uint64(ph.Next[f])})
		}
		down, err := PipeBroadcast(t, tokens)
		if err != nil {
			return nil, fmt.Errorf("congest: boruvka phase %d relabeling: %w", phi, err)
		}
		res.Stats.Add(down.Stats)
		res.EffectiveRounds += down.EffectiveRounds
	}
	return res, nil
}
