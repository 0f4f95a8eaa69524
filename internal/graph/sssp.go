package graph

import (
	"fmt"
	"math"
)

// SPResult holds single-source shortest-path distances over edge weights.
type SPResult struct {
	Source     int
	Dist       []float64 // weighted distance from source; +Inf if unreachable
	Hops       []int     // fewest edges among minimum-weight paths; -1 if unreachable
	Parent     []int     // shortest-path-tree parent; -1 for source/unreachable
	ParentEdge []int     // edge ID to parent; -1 for source/unreachable
}

// Dijkstra computes exact single-source shortest paths with a binary heap:
// the sequential oracle the distributed (1+ε)-approximate SSSP is validated
// against. All edge weights must be non-negative. Hops records, per vertex,
// the fewest edges over all minimum-weight paths — exactly the number of
// synchronous rounds distributed Bellman–Ford needs to settle that vertex,
// which is what the naive-baseline round accounting in internal/sssp
// charges.
func Dijkstra(g *Graph, src int) (*SPResult, error) {
	if src < 0 || src >= g.N() {
		return nil, fmt.Errorf("graph.Dijkstra: source %d out of range for n=%d", src, g.N())
	}
	for id := 0; id < g.M(); id++ {
		if w := g.Edge(id).W; w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("graph.Dijkstra: edge %d has weight %v", id, w)
		}
	}
	n := g.N()
	r := &SPResult{
		Source:     src,
		Dist:       make([]float64, n),
		Hops:       make([]int, n),
		Parent:     make([]int, n),
		ParentEdge: make([]int, n),
	}
	for v := 0; v < n; v++ {
		r.Dist[v] = math.Inf(1)
		r.Hops[v] = -1
		r.Parent[v] = -1
		r.ParentEdge[v] = -1
	}
	r.Dist[src] = 0
	r.Hops[src] = 0
	var h spHeap
	h.push(src, 0, 0)
	done := make([]bool, n)
	for h.len() > 0 {
		v := h.pop()
		if done[v] {
			continue
		}
		done[v] = true
		for _, a := range g.Adj(v) {
			cand := r.Dist[v] + g.Edge(a.ID).W
			candHops := r.Hops[v] + 1
			if cand < r.Dist[a.To] || (cand == r.Dist[a.To] && candHops < r.Hops[a.To]) {
				r.Dist[a.To] = cand
				r.Hops[a.To] = candHops
				r.Parent[a.To] = v
				r.ParentEdge[a.To] = a.ID
				h.push(a.To, cand, candHops)
			}
		}
	}
	return r, nil
}

// MinDistHeap is a binary min-heap of vertex IDs keyed by an external
// distance slice, with lazy deletion (callers skip stale pops via a done
// set). It is the heap of congest.RelaxOracle, the one relaxation fixed
// point that simulated relaxation checks against and analytic SSSP runs.
//
// Each entry snapshots its key at Push time. Keying entries by the live
// distance slice instead would silently break the heap invariant whenever
// a distance decreases after insertion — a stale entry's key shrinks in
// place, Pop can then surface a non-minimal vertex, and a done-marking
// Dijkstra discards the improvement that arrives after the premature pop.
// That corruption needs many initially-finite entries to bite, which is
// exactly the all-finite init of a mid-pipeline relaxation phase.
type MinDistHeap struct {
	dist []float64
	vs   []int32
	keys []float64
}

// Reset points the heap at a distance slice and empties it, keeping the
// backing storage (so a warm reuse allocates nothing).
func (h *MinDistHeap) Reset(dist []float64) {
	h.dist = dist
	h.vs = h.vs[:0]
	h.keys = h.keys[:0]
}

// Len returns the number of (possibly stale) entries.
func (h *MinDistHeap) Len() int { return len(h.vs) }

// Push inserts vertex v keyed by its distance at insertion time.
func (h *MinDistHeap) Push(v int) {
	h.vs = append(h.vs, int32(v))
	h.keys = append(h.keys, h.dist[v])
	i := len(h.vs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[i] >= h.keys[p] {
			break
		}
		h.vs[i], h.vs[p] = h.vs[p], h.vs[i]
		h.keys[i], h.keys[p] = h.keys[p], h.keys[i]
		i = p
	}
}

// Pop removes and returns a vertex of minimum key.
func (h *MinDistHeap) Pop() int {
	top := h.vs[0]
	last := len(h.vs) - 1
	h.vs[0] = h.vs[last]
	h.keys[0] = h.keys[last]
	h.vs = h.vs[:last]
	h.keys = h.keys[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.keys[l] < h.keys[small] {
			small = l
		}
		if r < last && h.keys[r] < h.keys[small] {
			small = r
		}
		if small == i {
			break
		}
		h.vs[i], h.vs[small] = h.vs[small], h.vs[i]
		h.keys[i], h.keys[small] = h.keys[small], h.keys[i]
		i = small
	}
	return int(top)
}

// spHeap is a binary min-heap of vertices keyed lexicographically by
// (dist, hops). Like MinDistHeap, each entry snapshots its key at push:
// Dijkstra lowers a queued vertex's live distance or hop count, and an
// entry keyed by the live value would shrink in place and break the heap
// invariant. Stale entries are skipped at pop (lazy deletion), matching
// the textbook decrease-key-free Dijkstra.
type spHeap []spEntry

type spEntry struct {
	dist float64
	hops int
	v    int32
}

func (e spEntry) less(o spEntry) bool {
	if e.dist != o.dist {
		return e.dist < o.dist
	}
	return e.hops < o.hops
}

func (h *spHeap) len() int { return len(*h) }

func (h *spHeap) push(v int, dist float64, hops int) {
	*h = append(*h, spEntry{dist: dist, hops: hops, v: int32(v)})
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].less(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *spHeap) pop() int {
	q := *h
	top := q[0].v
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q[l].less(q[small]) {
			small = l
		}
		if r < last && q[r].less(q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return int(top)
}
