package graph

import (
	"fmt"
	"math"
)

// GlobalMinCut computes the exact weight of a global minimum edge cut of a
// connected weighted graph using the Stoer–Wagner algorithm, along with one
// side of an optimal cut (original vertex indices). It runs in O(n^3) time
// and serves as the correctness reference for the distributed (1+ε)
// approximation. Edge weights must be non-negative (NaN is an error).
func GlobalMinCut(g *Graph) (weight float64, side []int, err error) {
	n := g.N()
	if n < 2 {
		return 0, nil, fmt.Errorf("graph.GlobalMinCut: need at least 2 vertices, have %d", n)
	}
	if !IsConnected(g) {
		return 0, nil, fmt.Errorf("graph.GlobalMinCut: %w", ErrDisconnected)
	}
	// Dense weight matrix; parallel edges merge by summing weight.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for _, e := range g.Edges() {
		if e.U < 0 {
			continue // RemoveEdge tombstone
		}
		if e.W < 0 || math.IsNaN(e.W) {
			return 0, nil, fmt.Errorf("graph.GlobalMinCut: weight %v on edge {%d,%d}", e.W, e.U, e.V)
		}
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	// merged[v] lists the original vertices merged into supernode v.
	merged := make([][]int, n)
	for i := range merged {
		merged[i] = []int{i}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := math.Inf(1)
	var bestSide []int
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) search.
		inA := make(map[int]bool, len(active))
		conn := make(map[int]float64, len(active))
		var order []int
		for len(order) < len(active) {
			sel, selW := -1, -1.0
			for _, v := range active {
				if !inA[v] && (sel == -1 || conn[v] > selW) {
					sel, selW = v, conn[v]
				}
			}
			inA[sel] = true
			order = append(order, sel)
			for _, v := range active {
				if !inA[v] {
					conn[v] += w[sel][v]
				}
			}
		}
		s, t := order[len(order)-2], order[len(order)-1]
		cutOfPhase := conn[t]
		if cutOfPhase < best {
			best = cutOfPhase
			bestSide = append([]int(nil), merged[t]...)
		}
		// Merge t into s.
		merged[s] = append(merged[s], merged[t]...)
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		next := active[:0]
		for _, v := range active {
			if v != t {
				next = append(next, v)
			}
		}
		active = next
	}
	return best, bestSide, nil
}

// CutWeight returns the total weight of edges with exactly one endpoint in
// the given side.
func CutWeight(g *Graph, side []int) float64 {
	in := make(map[int]bool, len(side))
	for _, v := range side {
		in[v] = true
	}
	var w float64
	for _, e := range g.Edges() {
		if in[e.U] != in[e.V] {
			w += e.W
		}
	}
	return w
}

// EdgeConnectivity returns the unweighted global edge connectivity, i.e. the
// minimum number of edges whose removal disconnects g, by running
// Stoer–Wagner with unit weights. Parallel edges count with multiplicity.
func EdgeConnectivity(g *Graph) (int, error) {
	unit := New(g.N())
	for _, e := range g.Edges() {
		if e.U >= 0 { // not a RemoveEdge tombstone
			unit.AddEdge(e.U, e.V, 1)
		}
	}
	w, _, err := GlobalMinCut(unit)
	if err != nil {
		return 0, err
	}
	return int(math.Round(w)), nil
}
