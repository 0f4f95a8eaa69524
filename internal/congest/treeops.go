package congest

import (
	"fmt"

	"repro/internal/graph"
)

// The single-value tree primitives are thin single-token wrappers over the
// pipelined multi-token layer (Pipecast / PipeBroadcast): one tag, one
// token per tree edge, O(height) rounds.

// TreeBroadcast floods a value from the root down a rooted spanning tree:
// O(height) rounds, one word per edge. Returns the value received at every
// vertex; an incomplete delivery is an error, never a partial array.
func TreeBroadcast(t *graph.Tree, value uint64) (values []uint64, stats Stats, err error) {
	res, err := PipeBroadcast(t, []Token{{Tag: 0, Value: value}})
	if err != nil {
		return nil, stats, err
	}
	out := make([]uint64, t.G.N())
	for v := range out {
		out[v] = value // every vertex's receipt was validated by the run
	}
	return out, res.Stats, nil
}

// TreeSum convergecasts the sum of per-vertex values up a rooted spanning
// tree: O(height) rounds, one word per edge (partial sums combine). The
// root's total is returned. This is the subtree-aggregation primitive the
// min-cut 1-respecting evaluation uses.
func TreeSum(t *graph.Tree, values []uint64) (total uint64, stats Stats, err error) {
	return treeCombine(t, values, CombineSum)
}

// TreeMax convergecasts the maximum of per-vertex values up a rooted
// spanning tree: O(height) rounds, one word per edge (partial maxima
// combine). The cap search uses it to measure a constructed shortcut's
// congestion in-network — each vertex's value is the number of parts
// admitted over its parent edge.
func TreeMax(t *graph.Tree, values []uint64) (max uint64, stats Stats, err error) {
	return treeCombine(t, values, CombineMax)
}

// treeCombine runs the pipelined convergecast with a single tag carried by
// every vertex: each vertex contributes one token, so the stream degenerates
// to the classic wait-for-children convergecast (n-1 messages, O(height)
// rounds) while sharing the pipelined core's protocol and state layout.
func treeCombine(t *graph.Tree, values []uint64, comb Combiner) (total uint64, stats Stats, err error) {
	g := t.G
	if len(values) != g.N() {
		return 0, stats, fmt.Errorf("congest: %d values for %d vertices", len(values), g.N())
	}
	backing := make([]Token, g.N())
	contrib := make([][]Token, g.N())
	for v := range contrib {
		backing[v] = Token{Tag: 0, Value: values[v]}
		contrib[v] = backing[v : v+1 : v+1]
	}
	res, err := Pipecast(t, 1, contrib, comb)
	if err != nil {
		return 0, stats, err
	}
	return res.Values[0], res.Stats, nil
}
