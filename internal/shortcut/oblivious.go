package shortcut

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Oblivious constructs a T-restricted shortcut without any structural
// knowledge of the graph, in the spirit of the distributed construction of
// [HIZ16a]: every part grows tokens up the tree from each of its vertices,
// level-synchronously, claiming parent edges as long as the edge's
// congestion stays below the budget. Tokens of the same part merge when they
// meet. Congestion is at most `budget` by construction; the block parameter
// is whatever the graph's structure forces — on graphs admitting good
// shortcuts (the paper's excluded-minor families) it comes out small, on the
// lower-bound family it does not.
func Oblivious(g *graph.Graph, t *graph.Tree, p *partition.Parts, budget int) *Shortcut {
	if budget < 1 {
		budget = 1
	}
	numParts := p.NumParts()
	load := make([]int, g.M())                // parts currently using each tree edge
	claimed := make([]map[int]bool, numParts) // per part: claimed edge set
	frontier := make([][]int, numParts)       // per part: token positions (vertices)
	atVertex := make([]map[int]bool, numParts)
	for i := 0; i < numParts; i++ {
		claimed[i] = make(map[int]bool)
		atVertex[i] = make(map[int]bool)
		for _, v := range p.Sets[i] {
			if !atVertex[i][v] {
				atVertex[i][v] = true
				frontier[i] = append(frontier[i], v)
			}
		}
	}
	// Level-synchronous upward claiming: in each step every token tries to
	// move one edge toward the root. Deterministic order: parts then
	// vertices ascending.
	for moved := true; moved; {
		moved = false
		for i := 0; i < numParts; i++ {
			var next []int
			for _, v := range frontier[i] {
				pe := t.ParentEdge[v]
				if pe == -1 {
					continue // at root
				}
				pv := t.Parent[v]
				if claimed[i][pe] {
					// Shouldn't happen (tokens merge), but harmless.
					continue
				}
				if atVertex[i][pv] {
					// Another token of this part already covers the parent:
					// still claim the connecting edge if budget allows, to
					// merge blocks.
					if load[pe] < budget {
						load[pe]++
						claimed[i][pe] = true
						moved = true
					}
					continue
				}
				if load[pe] >= budget {
					continue // blocked: token dies here
				}
				load[pe]++
				claimed[i][pe] = true
				atVertex[i][pv] = true
				next = append(next, pv)
				moved = true
			}
			frontier[i] = next
		}
	}
	edges := make([][]int, numParts)
	for i := range edges {
		for id := range claimed[i] {
			//lint:allow detmap shortcut.New sorts and dedups every edge list, so map order never escapes
			edges[i] = append(edges[i], id)
		}
	}
	s, err := New(g, t, p, edges)
	if err != nil {
		panic(fmt.Sprintf("shortcut.Oblivious: internal error: %v", err))
	}
	return s
}

// ObliviousAuto searches over geometric congestion budgets and returns the
// shortcut with the best measured quality, mirroring [HIZ16a]'s
// approximately-optimal construction by trying O(log n) guesses.
func ObliviousAuto(g *graph.Graph, t *graph.Tree, p *partition.Parts) (*Shortcut, Measurement) {
	var best *Shortcut
	var bestM Measurement
	for budget := 1; budget <= 2*g.N(); budget *= 2 {
		s := Oblivious(g, t, p, budget)
		m := s.Measure()
		if best == nil || m.Quality < bestM.Quality {
			best, bestM = s, m
		}
		if budget > p.NumParts() {
			break // more budget than parts cannot help further
		}
	}
	return best, bestM
}

// WholeTree assigns the entire spanning tree to the listed parts (the
// paper's treatment of parts containing an apex: they get all of T). It
// drops any measurement s carried, so Measure recounts the new edge sets.
func WholeTree(s *Shortcut, parts []int) {
	all := s.T.TreeEdgeIDs()
	for _, i := range parts {
		s.Edges[i] = append([]int(nil), all...)
	}
	s.measured = nil
}
