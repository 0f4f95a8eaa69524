package congest

import (
	"fmt"

	"repro/internal/graph"
)

// TreeSum convergecasts the sum of per-vertex values up a rooted spanning
// tree: a single-token Pipecast, O(height) rounds, one word per edge
// (partial sums combine). The root's total is returned. This is the
// subtree-aggregation primitive the min-cut 1-respecting evaluation uses.
func TreeSum(t *graph.Tree, values []uint64) (total uint64, stats Stats, err error) {
	return treeCombineUnder(t, values, CombineSum, nil)
}

// treeCombineUnder runs the pipelined convergecast with a single tag
// carried by every vertex, through the adversary's Pipecast (nil adversary
// = fault-free): each vertex contributes one token, so the stream
// degenerates to the classic wait-for-children convergecast (n-1 messages,
// O(height) rounds) while sharing the pipelined core's protocol and state
// layout.
func treeCombineUnder(t *graph.Tree, values []uint64, comb Combiner, a *Adversary) (total uint64, stats Stats, err error) {
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
	res, err := a.Pipecast(t, 1, contrib, comb)
	if err != nil {
		return 0, stats, err
	}
	return res.Values[0], res.Stats, nil
}
