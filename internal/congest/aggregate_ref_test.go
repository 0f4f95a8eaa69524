package congest

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// closureAggregate is the pre-slab reference implementation of one
// aggregation run, used to cross-check the slab version.
func closureAggregate(g *graph.Graph, p *partition.Parts, partsOnEdge func(int) []int32, keys, want []uint64, budget int) (int, bool) {
	n := g.N()
	finalBest := make([]uint64, n)
	for v := range finalBest {
		finalBest[v] = math.MaxUint64
	}
	proto := func(nd *Node) RoundFunc {
		type channel struct{ port, part int32 }
		var parts []int32
		var best []uint64
		var channels []channel
		localIdx := func(part int32) int {
			for li, x := range parts {
				if x == part {
					return li
				}
			}
			return -1
		}
		for port := range nd.ports {
			for _, pi := range partsOnEdge(nd.PortEdge(port)) {
				channels = append(channels, channel{int32(port), pi})
				if localIdx(pi) == -1 {
					parts = append(parts, pi)
					best = append(best, math.MaxUint64)
				}
			}
		}
		own := -1
		if pi := p.Of[nd.ID]; pi != -1 {
			if li := localIdx(int32(pi)); li != -1 {
				own = li
				if keys[nd.ID] < best[li] {
					best[li] = keys[nd.ID]
				}
			} else {
				parts = append(parts, int32(pi))
				best = append(best, keys[nd.ID])
				own = len(parts) - 1
			}
		}
		dirty := make([]bool, len(channels))
		for ci, ch := range channels {
			if best[localIdx(ch.part)] != math.MaxUint64 {
				dirty[ci] = true
			}
		}
		sentRound := make([]int32, len(nd.ports))
		for i := range sentRound {
			sentRound[i] = -1
		}
		r := 0
		return func(nd *Node, msgs []Message) bool {
			for _, msg := range msgs {
				pi := int32(msg.Payload[0])
				key := msg.Payload[1]
				li := localIdx(pi)
				if li == -1 || key >= best[li] {
					continue
				}
				best[li] = key
				for ci, ch := range channels {
					if ch.part == pi && int(ch.port) != msg.Port {
						dirty[ci] = true
					}
				}
			}
			if r == budget {
				if own != -1 {
					finalBest[nd.ID] = best[own]
				}
				return false
			}
			for ci, ch := range channels {
				if !dirty[ci] || sentRound[ch.port] == int32(r) {
					continue
				}
				nd.Send(int(ch.port), Words{uint64(ch.part), best[localIdx(ch.part)]})
				dirty[ci] = false
				sentRound[ch.port] = int32(r)
			}
			r++
			return true
		}
	}
	stats, err := RunSync(g, proto, Options{MaxRounds: budget + 64})
	if err != nil {
		panic(err)
	}
	converged := true
	for i, w := range want {
		for _, v := range p.Sets[i] {
			if finalBest[v] != w {
				converged = false
			}
		}
	}
	return stats.LastActiveRound, converged
}

func TestSlabAggregateMatchesClosureReference(t *testing.T) {
	e := gen.Wheel(65)
	tr, _ := graph.BFSTree(e.G, 64)
	p, err := partition.RimArcs(e.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, e.G.N())
	for v := range keys {
		keys[v] = uint64(v*7%1009 + 1)
	}
	s, _ := shortcut.ObliviousAuto(e.G, tr, p)
	res, err := AggregateMin(e.G, p, s, keys)
	if err != nil {
		t.Fatal(err)
	}
	// The same channel relation the slab version used (shared builder).
	g := e.G
	partsOnEdge := buildEdgeChannels(g, p, s)
	refRounds, ok := closureAggregate(g, p, partsOnEdge, keys, res.Mins, res.Budget)
	if !ok {
		t.Fatal("reference did not converge at the same budget")
	}
	if refRounds != res.EffectiveRounds {
		t.Fatalf("slab EffectiveRounds=%d, closure reference=%d", res.EffectiveRounds, refRounds)
	}
}
