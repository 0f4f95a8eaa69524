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

// treePorts is a rooted spanning tree as its vertices see it through their
// ports, the one table the tree protocols read: the flooding construction,
// Pipecast and PipeBroadcast. parent[v] is v's port to its tree parent, or
// -1 at the root. v's tree children own the slots [slotOff[v],
// slotOff[v+1]), one per child in port order: child[s] is the child and
// port[s] v's port to it. portSlot[portOff[v]+p] is the slot behind v's
// port p, or -1 where p leads to no tree child.
type treePorts struct {
	parent, slotOff, child, port []int32
	portOff, portSlot            []int32
}

// newTreePorts derives t's port table; t must be a tree of g.
func newTreePorts(g *graph.Graph, t *graph.Tree) *treePorts {
	n := g.N()
	tp := &treePorts{
		parent:  make([]int32, n),
		slotOff: make([]int32, n+1),
		child:   make([]int32, 0, n),
		port:    make([]int32, 0, n),
		portOff: make([]int32, n+1),
	}
	for v := 0; v < n; v++ {
		tp.portOff[v+1] = tp.portOff[v] + int32(g.Degree(v))
	}
	tp.portSlot = make([]int32, tp.portOff[n])
	for v := 0; v < n; v++ {
		tp.parent[v] = -1
		for port, a := range g.Adj(v) {
			slot := int32(-1)
			switch {
			case a.ID == t.ParentEdge[v] && a.To == t.Parent[v]:
				tp.parent[v] = int32(port)
			case a.ID == t.ParentEdge[a.To] && t.Parent[a.To] == v:
				slot = int32(len(tp.child))
				tp.child = append(tp.child, int32(a.To))
				tp.port = append(tp.port, int32(port))
			}
			tp.portSlot[tp.portOff[v]+int32(port)] = slot
		}
		tp.slotOff[v+1] = int32(len(tp.child))
	}
	return tp
}

// slot returns the slot behind v's port, or -1.
func (tp *treePorts) slot(v, port int) int32 {
	return tp.portSlot[tp.portOff[v]+int32(port)]
}
