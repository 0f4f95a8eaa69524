package congest

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// buildEdgeChannels computes, for every edge, the parts communicating over
// it, in CSR layout: an edge carries its induced part (both endpoints in
// the same part) plus every part whose shortcut borrows it. This is the
// communication structure shared by all part-wise framework primitives
// (aggregation, distance relaxation): one logical (part, edge) flow per
// channel, so congested edges serialize exactly as the congestion parameter
// predicts.
//
// The returned function yields the channel parts of an edge ID; the slice
// is valid until the builder's backing arrays are garbage.
func buildEdgeChannels(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) func(id int) []int32 {
	peOff := make([]int32, g.M()+1)
	induced := func(id int) int {
		if g.EdgeRemoved(id) {
			// Churn tombstone: carries no channel (and its endpoints are
			// gone, so the part lookup below would misindex).
			return -1
		}
		e := g.Edge(id)
		if pi := p.Of[e.U]; pi != -1 && pi == p.Of[e.V] {
			return pi
		}
		return -1
	}
	for id := 0; id < g.M(); id++ {
		if induced(id) != -1 {
			peOff[id+1]++
		}
	}
	for pi, ids := range s.Edges() {
		for _, id := range ids {
			if induced(id) != pi {
				peOff[id+1]++
			}
		}
	}
	for id := 0; id < g.M(); id++ {
		peOff[id+1] += peOff[id]
	}
	peStore := make([]int32, peOff[g.M()])
	peLen := make([]int32, g.M())
	for id := 0; id < g.M(); id++ {
		if pi := induced(id); pi != -1 {
			peStore[peOff[id]] = int32(pi)
			peLen[id] = 1
		}
	}
	for pi, ids := range s.Edges() {
		for _, id := range ids {
			if induced(id) != pi {
				peStore[peOff[id]+peLen[id]] = int32(pi)
				peLen[id]++
			}
		}
	}
	return func(id int) []int32 { return peStore[peOff[id] : peOff[id]+peLen[id]] }
}
