package shortcut

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TreeBlockCounts returns, per part, the number of blocks the part forms in
// the spanning tree: connected components of T restricted to the part's
// vertices. A part's block count equals the number of its members whose
// tree parent lies outside the part (or that are the root) — each block has
// exactly one topmost vertex — so every node can decide locally whether it
// tops a block, and the per-part counts are one convergecast-sum away in a
// real deployment.
//
// This is the pre-construction notion of "blocks" that drives part
// priorities: a part fragmented into many tree blocks needs more tree edges
// to stitch itself together, so it should win contested edge slots. (It is
// distinct from Measurement.Blocks, which counts the blocks left *after* a
// shortcut assignment.)
func TreeBlockCounts(t *graph.Tree, p *partition.Parts) []int {
	out := make([]int, p.NumParts())
	for i, set := range p.Sets {
		for _, v := range set {
			if par := t.Parent[v]; par == -1 || p.Of[par] != i {
				out[i]++
			}
		}
	}
	return out
}

// TreeBlockPriorities ranks the parts for the flooding construction's
// eviction rule: prio[i] is part i's rank, and rank 0 is the highest
// priority. Parts with more tree blocks rank higher (they have the most to
// gain from tree edges — the paper's block/congestion trade-off), ties
// break toward the lower part ID (the deterministic static order the
// construction used before priorities existed).
//
// The distributed realization (congest.BootstrapPrioritiesUnder) computes the
// same ranking in-network: the block counts pipeline up the tree as tagged
// tokens, the root ranks them with RankBlockCounts, and the ranking
// streams back down — its fixed point is validated against this function.
func TreeBlockPriorities(t *graph.Tree, p *partition.Parts) []int32 {
	return RankBlockCounts(TreeBlockCounts(t, p))
}

// RankBlockCounts turns per-part block counts into the eviction ranking
// (rank 0 = highest priority): more blocks rank higher, ties break toward
// the lower part ID. Exposed separately so the in-network bootstrap can
// rank the counts its convergecast produced exactly the way the
// sequential path does. The purity analyzer proves it deterministic: the
// fixed-point validation compares its output byte-for-byte.
//
//congest:pure
func RankBlockCounts(blocks []int) []int32 {
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if blocks[ia] != blocks[ib] {
			return blocks[ia] > blocks[ib]
		}
		return ia < ib
	})
	prio := make([]int32, len(blocks))
	for rank, part := range order {
		prio[part] = int32(rank)
	}
	return prio
}

// Construct computes the part-wise flooding construction: every part floods
// its ID up the spanning tree from each of its vertices, a subtree adopts
// the parent edge of every part whose flood reaches it, and each tree edge
// admits at most cap parts — an overloaded vertex evicts the lowest-priority
// parts. Priorities are the block-count-driven ranks of TreeBlockPriorities
// (parts spanning more tree blocks win contested slots; ties by lower part
// ID), so the cap is the paper's block/congestion trade-off made explicit.
// The result is the unique bottom-up fixed point
//
//	admitted(v) = the (up to) cap highest-priority parts of
//	              {part of v} ∪ ⋃_{c child of v} admitted(c),
//
// and part i's shortcut is Hᵢ = { ParentEdge[v] : i ∈ admitted(v) }.
// Congestion is at most cap by construction; the block parameter is
// whatever the eviction pattern forces.
//
// This is the sequential evaluation of the fixed point — the analytic-mode
// constructor and the convergence oracle for the distributed realization
// (congest.ConstructShortcut), which computes the identical assignment by
// actual message passing.
func Construct(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int) *Shortcut {
	return ConstructPrio(g, t, p, cap, TreeBlockPriorities(t, p))
}

// ConstructPrio is Construct under an explicit priority ranking (prio[i] =
// rank of part i, rank 0 highest; nil selects the static by-ID order).
// Exposed so the cap search can compute the ranking once per part family
// and reuse it across all cap guesses. The ranking must be a permutation
// of 0..NumParts-1 (ValidPriorities).
func ConstructPrio(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int, prio []int32) *Shortcut {
	if err := ValidPriorities(prio, p.NumParts()); err != nil {
		panic(fmt.Sprintf("shortcut.ConstructPrio: %v", err))
	}
	s, err := FromFloodState(g, t, p, FloodFixedPoint(g, t, p, cap, prio), prio)
	if err != nil {
		panic(fmt.Sprintf("shortcut.Construct: internal error: %v", err))
	}
	return s
}

// ValidPriorities checks that prio is a permutation of 0..numParts-1 (nil
// is the identity and always valid): a rank out of range would index past
// the inverse mapping when the shortcut is assembled, and a duplicate rank
// would silently merge two parts' floods — one part losing every edge.
func ValidPriorities(prio []int32, numParts int) error {
	if prio == nil {
		return nil
	}
	if len(prio) != numParts {
		return fmt.Errorf("shortcut: %d priorities for %d parts", len(prio), numParts)
	}
	seen := make([]bool, numParts)
	for part, rank := range prio {
		if rank < 0 || int(rank) >= numParts {
			return fmt.Errorf("shortcut: part %d has rank %d outside [0, %d)", part, rank, numParts)
		}
		if seen[rank] {
			return fmt.Errorf("shortcut: rank %d assigned to more than one part", rank)
		}
		seen[rank] = true
	}
	return nil
}

// ErrMalformedFloodState marks a flooding-construction state FromFloodState
// refuses to assemble.
var ErrMalformedFloodState = errors.New("shortcut: malformed flood state")

// FromFloodState assembles and measures the Shortcut described by a
// flooding-construction state: admitted[v] lists, in rank space (see
// FloodFixedPoint), the parts admitted over v's parent edge; prio maps part
// to rank (nil = identity) and must be a permutation of 0..NumParts-1. Both
// the sequential constructor and the distributed protocol's converged state
// assemble through here, so the two paths cannot diverge.
//
// The state already holds everything Measure would recompute, so the
// returned shortcut carries its Measurement, derived in one children-first
// pass over the state:
//
//   - congestion is max_v |admitted(v)|, because distinct vertices have
//     distinct parent edges;
//   - part i's block count is the number of vertices where i is present
//     (v's own part, or admitted by a child) but not admitted over v's
//     parent edge: the BlockTops indicators, one per block top.
//
// The block formula equals BlockCounts only for grounded states, in which
// every rank admitted at v is present at v, so every H-component reaches
// down to a member of its part. Every fixed point is grounded. The pass
// returns an error wrapping ErrMalformedFloodState for a state that is not,
// and for one of the wrong shape: not one list per vertex, a rank outside
// [0, NumParts), a list not strictly ascending, or ranks at the root, which
// has no parent edge to admit them over.
func FromFloodState(g *graph.Graph, t *graph.Tree, p *partition.Parts, admitted [][]int32, prio []int32) (*Shortcut, error) {
	if err := ValidPriorities(prio, p.NumParts()); err != nil {
		return nil, err
	}
	if t.G != g {
		return nil, fmt.Errorf("shortcut: tree belongs to a different graph")
	}
	if p.G != g {
		return nil, fmt.Errorf("shortcut: parts belong to a different graph")
	}
	for i, set := range p.Sets {
		if len(set) == 0 {
			return nil, fmt.Errorf("shortcut: part %d is empty", i)
		}
	}
	if len(admitted) != g.N() {
		return nil, fmt.Errorf("%w: %d admitted lists for %d vertices", ErrMalformedFloodState, len(admitted), g.N())
	}
	np := p.NumParts()
	inv := invertPriorities(np, prio)
	m, size, err := measureFloodState(t, p, admitted, prio, inv)
	if err != nil {
		return nil, err
	}
	// The total assignment size Σᵥ|admitted(v)| reaches Θ(n·cap) at scale, so
	// the per-part lists are carved out of one counted slab instead of grown
	// with append: the measurement pass counted, a prefix sum places each
	// part's region, and a fill pass writes it. The fill visits tree edges in
	// ascending ID order, so every region comes out sorted. The lists are
	// duplicate-free (admitted ranks are strictly ascending per vertex, and
	// distinct vertices have distinct parent edges) and every ID is a tree
	// edge by definition, so New's sortedDedup copy and tree-membership sweep
	// are redundant here and the Shortcut is built directly.
	off := make([]int, np+1)
	for r, c := range size {
		off[inv[r]+1] = c
	}
	for i := 0; i < np; i++ {
		off[i+1] += off[i]
	}
	slab := make([]int, off[np])
	cur := make([]int, np) // by rank: the next free slot of the rank's part
	for r := range cur {
		cur[r] = off[inv[r]]
	}
	child := g.AcquireScratch() // tree edge ID -> the vertex it is the parent edge of
	defer g.ReleaseScratch(child)
	for v, id := range t.ParentEdge {
		if id != -1 {
			child.Set(id, int32(v))
		}
	}
	for id := 0; id < g.M(); id++ {
		v, ok := child.Get(id)
		if !ok {
			continue
		}
		for _, r := range admitted[v] {
			slab[cur[r]] = id
			cur[r]++
		}
	}
	s := &Shortcut{G: g, T: t, P: p, Edges: make([][]int, np), measured: &m}
	for i := 0; i < np; i++ {
		s.Edges[i] = slab[off[i]:off[i+1]:off[i+1]]
	}
	return s, nil
}

// measureFloodState validates a flood state and measures the shortcut it
// describes (see FromFloodState). It also returns the edge count of each
// rank's part: size[r] = |H_inv[r]|. Vertices are visited children first
// (reverse BFS order), so every child's list is validated before its
// parent reads it, and all counting is in rank space, mapped to parts once
// at the end.
//
// In a grounded state the admitted ranks at v are a subset of the present
// ones, so part i's block count — #{v : i present, i not admitted} — is
// #{v : i present} − |Hᵢ|. The pass therefore counts presence alone, with
// one rank-indexed stamp array in place of a per-part union-find, and
// subtracts the edge counts at the end.
func measureFloodState(t *graph.Tree, p *partition.Parts, admitted [][]int32, prio, inv []int32) (Measurement, []int, error) {
	np := p.NumParts()
	m := Measurement{TreeDiameter: treeDiameter(t), Blocks: make([]int, np)}
	size := make([]int, np)
	seen := make([]int, np) // by rank: #{v : rank present at v}
	// present[r] == v+1 iff rank r is present at v. Each vertex is visited
	// once, so v+1 is a fresh stamp and the array is never cleared.
	present := make([]int32, np)
	for oi := len(t.Order) - 1; oi >= 0; oi-- {
		v := t.Order[oi]
		stamp := int32(v + 1)
		if pi := p.Of[v]; pi != -1 {
			r := int32(pi)
			if prio != nil {
				r = prio[pi]
			}
			present[r] = stamp
			seen[r]++
		}
		for _, c := range t.Children[v] {
			for _, r := range admitted[c] {
				if present[r] != stamp {
					present[r] = stamp
					seen[r]++
				}
			}
		}
		list := admitted[v]
		if len(list) > 0 && t.ParentEdge[v] == -1 {
			return Measurement{}, nil, fmt.Errorf("%w: vertex %d has no parent edge but admits %d ranks",
				ErrMalformedFloodState, v, len(list))
		}
		for k, r := range list {
			switch {
			case r < 0 || int(r) >= np:
				return Measurement{}, nil, fmt.Errorf("%w: vertex %d admits rank %d outside [0, %d)",
					ErrMalformedFloodState, v, r, np)
			case k > 0 && r <= list[k-1]:
				return Measurement{}, nil, fmt.Errorf("%w: vertex %d admits ranks %v, not strictly ascending",
					ErrMalformedFloodState, v, list)
			case present[r] != stamp:
				return Measurement{}, nil, fmt.Errorf("%w: vertex %d admits rank %d, present at neither its own part nor a child",
					ErrMalformedFloodState, v, r)
			}
			size[r]++
		}
		m.Congestion = max(m.Congestion, len(list))
	}
	for r, part := range inv {
		m.Blocks[part] = seen[r] - size[r]
	}
	m.finish()
	return m, size, nil
}

// invertPriorities returns the rank -> part mapping (identity for nil prio).
func invertPriorities(numParts int, prio []int32) []int32 {
	inv := make([]int32, numParts)
	if prio == nil {
		for i := range inv {
			inv[i] = int32(i)
		}
		return inv
	}
	for part, rank := range prio {
		inv[rank] = int32(part)
	}
	return inv
}

// FloodFixedPoint returns, per vertex, the sorted priority ranks admitted
// over the vertex's parent edge at the flooding construction's fixed point
// (nil at the root and at vertices no flood reaches). The state lives in
// rank space — ascending rank = descending priority — so "keep the cap
// best" is a prefix truncation; map ranks back to parts with the inverse of
// prio (nil prio = identity, i.e. the static by-ID order). Exposed so the
// distributed construction can validate its converged state against the
// ground truth.
func FloodFixedPoint(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int, prio []int32) [][]int32 {
	if cap < 1 {
		cap = 1
	}
	n := g.N()
	admitted := make([][]int32, n)
	seen := g.AcquireScratch()
	defer g.ReleaseScratch(seen)
	var present []int32
	// Per-vertex lists are carved from chunked arenas rather than allocated
	// individually: at scale the fixed point holds Θ(n·cap) ranks, and n
	// separate allocations (plus their zeroing) dominate the flood's cost.
	// Headroom is tracked by hand because the cap parameter shadows the
	// builtin.
	var arena []int32
	arenaFree := 0
	// Children precede parents in reverse BFS order, so admitted(c) is final
	// when v merges it.
	for oi := n - 1; oi >= 0; oi-- {
		v := t.Order[oi]
		present = admit(t, p, prio, cap, admitted, v, seen, present)
		if len(present) == 0 {
			continue
		}
		if len(present) > arenaFree {
			size := 1 << 15
			if len(present) > size {
				size = len(present)
			}
			arena = make([]int32, 0, size)
			arenaFree = size
		}
		start := len(arena)
		arena = append(arena, present...)
		arenaFree -= len(present)
		admitted[v] = arena[start:len(arena):len(arena)]
	}
	return admitted
}

// admit is the flooding rule at v, shared by FloodFixedPoint and the
// dirty-closure recompute of Repair: the (up to) cap best ranks of v's own
// part and of everything v's children admit, ascending, and none at the
// root, which has no parent edge. It overwrites buf and returns it; seen is
// deduplication scratch over ranks.
func admit(t *graph.Tree, p *partition.Parts, prio []int32, cap int, admitted [][]int32, v int, seen *graph.Scratch, buf []int32) []int32 {
	buf = buf[:0]
	if t.ParentEdge[v] == -1 {
		return buf
	}
	seen.Reset()
	if pi := p.Of[v]; pi != -1 {
		r := int32(pi)
		if prio != nil {
			r = prio[pi]
		}
		seen.Visit(int(r))
		buf = append(buf, r)
	}
	for _, c := range t.Children[v] {
		for _, r := range admitted[c] {
			if seen.Visit(int(r)) {
				buf = append(buf, r)
			}
		}
	}
	slices.Sort(buf)
	return buf[:min(len(buf), cap)]
}

// AutoResult reports a congestion-cap auto-search.
type AutoResult struct {
	S       *Shortcut
	M       Measurement
	Cap     int // winning cap
	Guesses int // constructions evaluated by the sweep
}

// ConstructAuto searches over geometric congestion caps and returns the
// flooding construction with the best measured quality. This is the central
// reference sweep — every guess is measured exactly with Measure() — kept
// as the oracle for the in-network doubling search (congest.SearchCap),
// which estimates per-guess quality by convergecast instead.
//
// Guesses are 1, 2, 4, ... clamped to the part count: a cap of NumParts
// already admits every part everywhere, so larger caps construct the
// identical shortcut and are not evaluated. An empty part family is an
// explicit error (there is nothing to construct a shortcut for).
func ConstructAuto(g *graph.Graph, t *graph.Tree, p *partition.Parts) (*AutoResult, error) {
	np := p.NumParts()
	if np == 0 {
		return nil, fmt.Errorf("shortcut: auto cap search over an empty part family")
	}
	prio := TreeBlockPriorities(t, p)
	res := &AutoResult{}
	for cap := 1; ; cap *= 2 {
		c := cap
		if c > np {
			c = np
		}
		s := ConstructPrio(g, t, p, c, prio)
		m := s.Measure()
		res.Guesses++
		if res.S == nil || m.Quality < res.M.Quality {
			res.S, res.M, res.Cap = s, m, c
		}
		if c >= np {
			return res, nil // larger caps cannot admit anything new
		}
	}
}
