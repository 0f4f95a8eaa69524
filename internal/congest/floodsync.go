package congest

import (
	"fmt"

	"repro/internal/graph"
)

// The bootstrap floods: leader election and BFS-tree construction, the
// first two stages of the zero-witness pipeline. Both keep all protocol
// state in caller-owned slabs and drive one shared RoundFunc, so a
// node-round costs a function call and the engine's slab substrate carries
// million-node runs. They converge to the sequential fixed points — the
// minimum vertex ID, and CanonicalBFSParents' lowest-port BFS parents —
// and both take engine Options, so callers can stream per-round figures
// through Options.OnRound. Adversary.LeaderElect and Adversary.BFS are the
// fault-tolerant variants; a nil adversary delegates here.

// LeaderElectSync elects the minimum vertex ID. The flood is improvement-
// gated: a node re-broadcasts its best-known ID only when a message lowered
// it, so total messages are O(m · improvements) rather than O(m · D̂), while
// the round count stays diamBound+2 (nodes cannot detect global convergence
// and must run out the bound). The result is validated for unanimity; a
// bound below the true eccentricity of the minimum surfaces as
// IncompleteError, never as a wrong leader.
func LeaderElectSync(g *graph.Graph, diamBound int, opts Options) (leader int, stats Stats, err error) {
	n := g.N()
	if n == 0 {
		return -1, stats, fmt.Errorf("congest: leader election over an empty network")
	}
	if diamBound <= 0 {
		return -1, stats, fmt.Errorf("congest: leader election diameter bound %d must be positive", diamBound)
	}
	best := make([]uint64, n)
	shared := RoundFunc(func(nd *Node, msgs []Message) bool {
		improved := nd.Round() == 1
		if improved {
			best[nd.ID] = uint64(nd.ID)
		}
		for _, m := range msgs {
			if m.Payload[0] < best[nd.ID] {
				best[nd.ID] = m.Payload[0]
				improved = true
			}
		}
		if improved {
			nd.Broadcast(Words{best[nd.ID]})
		}
		nd.SleepUntil(diamBound + 2) // quiet until mail, or the round it exits
		return nd.Round() <= diamBound+1
	})
	stats, err = RunSync(g, func(*Node) RoundFunc { return shared }, opts)
	if err != nil {
		return -1, stats, err
	}
	leader = int(best[0])
	for v := 1; v < n; v++ {
		if int(best[v]) != leader {
			return -1, stats, &IncompleteError{Protocol: "LeaderElect", Rounds: stats.Rounds, Budget: diamBound + 2,
				Detail: fmt.Sprintf("nodes 0 and %d disagree (%d vs %d): diameter bound too small", v, leader, best[v])}
		}
	}
	return leader, stats, nil
}

// DistributedBFSSync builds the canonical BFS tree from root: the root
// announces itself in round 1; a node adopts the lowest-port announcement
// of its first delivery (CanonicalBFSParents' fixed point), re-announces
// once, and halts one round later. Joined nodes leave the live set as the
// wave passes, so the run ends ~ecc(root)+2 rounds in — it never idles out
// a full diameter bound the way the election must. diamBound+2 rounds is
// the give-up point for nodes the flood never reaches.
func DistributedBFSSync(g *graph.Graph, root, diamBound int, opts Options) (parent, parentEdge []int, stats Stats, err error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, nil, stats, fmt.Errorf("congest: BFS root %d out of range for %d nodes", root, n)
	}
	if diamBound <= 0 {
		return nil, nil, stats, fmt.Errorf("congest: BFS diameter bound %d must be positive", diamBound)
	}
	parent = make([]int, n)
	parentEdge = make([]int, n)
	for v := range parent {
		parent[v] = -1
		parentEdge[v] = -1
	}
	joined := make([]bool, n)
	shared := RoundFunc(func(nd *Node, msgs []Message) bool {
		if joined[nd.ID] {
			return false // announcement delivered last round; leave the live set
		}
		if nd.Round() == 1 && nd.ID == root {
			joined[root] = true
			nd.Broadcast(Words{uint64(nd.ID)})
			return true
		}
		if len(msgs) > 0 {
			// Inboxes are port-ordered, so msgs[0] is the lowest-port
			// announcer — the canonical parent rule.
			parent[nd.ID] = msgs[0].From
			parentEdge[nd.ID] = msgs[0].Edge
			joined[nd.ID] = true
			nd.Broadcast(Words{uint64(nd.ID)})
			return true
		}
		nd.SleepUntil(diamBound + 2) // wait for the wave, or give up
		return nd.Round() <= diamBound+1
	})
	stats, err = RunSync(g, func(*Node) RoundFunc { return shared }, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	for v := 0; v < n; v++ {
		if v != root && parent[v] == -1 {
			return nil, nil, stats, &IncompleteError{Protocol: "BFS", Rounds: stats.Rounds, Budget: diamBound + 2,
				Detail: fmt.Sprintf("flood from %d missed node %d within diamBound %d", root, v, diamBound)}
		}
	}
	if parent[root] != -1 {
		return nil, nil, stats, fmt.Errorf("congest: root %d acquired a parent", root)
	}
	return parent, parentEdge, stats, nil
}
