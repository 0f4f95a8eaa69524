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
// and build, under it, the one state every cap guess is a view of
// (CapViews). The ranking must be a permutation of 0..NumParts-1
// (ValidPriorities).
//
// One children-first pass computes the fixed point, runs FromFloodState's
// checks on it and measures it. The shortcut is flood-built: it keeps the
// admitted lists (FloodState) and assembles its per-part edge lists from
// them only on the first Edges call, so a caller that reads nothing but
// Measure and MaxAugmentedEcc, which probes the admitted lists, never
// builds them.
func ConstructPrio(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int, prio []int32) *Shortcut {
	if err := checkFloodInput(g, t, p, prio); err != nil {
		panic(fmt.Sprintf("shortcut.ConstructPrio: %v", err))
	}
	cap = max(cap, 1)
	f, err := measureFloodState(t, p, nil, prio, cap)
	if err != nil {
		panic(fmt.Sprintf("shortcut.ConstructPrio: internal error: %v", err))
	}
	f.cap = cap
	return &Shortcut{G: g, T: t, P: p, flood: f}
}

// CapViews returns the cap-c view of s for every c in caps, which must
// ascend strictly and lie in [1, cap] for the cap ConstructPrio built s
// at. Under one ranking the flooding fixed points nest: vertex by vertex,
// the state at cap c is the first c ranks of the state at any larger cap,
// because the c best ranks of a union are the c best of the union of each
// set's c best, by induction children-first. So a view is what
// ConstructPrio at its cap returns, FloodState, Measure, Edges, BlockTops
// and the eccentricity probe alike, with nothing built per vertex: it
// reads the prefixes of s's lists, and fills its edge lists from them
// only when Edges is called. A view keeps s's lists alive; Compact copies
// one's prefixes out.
//
// Every view's measurement comes from one sweep over s's state. Count a
// list's positions from 0. With S(v) the ranks of s's list at v:
//
//   - congestion at cap c is min(c, max_v |S(v)|);
//   - rank r is present at v at cap c when it is v's own part's, or sits
//     at a position below c in a child's list: for every c above a, with
//     a = −1 for v's own part and otherwise r's lowest position in a
//     child's list. It is admitted at v for every c above its position in
//     v's list. Each fixed point is grounded, so r's block count at cap c
//     is #{v : r present} − #{v : r admitted}, and the sweep books both
//     counts, per rank, in difference arrays over the cap index.
func (s *Shortcut) CapViews(caps []int) ([]*Shortcut, error) {
	f := s.flood
	if f == nil || f.cap == 0 {
		return nil, fmt.Errorf("shortcut: cap views need a state ConstructPrio built")
	}
	for k, c := range caps {
		if c < 1 || c > f.cap || (k > 0 && c <= caps[k-1]) {
			return nil, fmt.Errorf("shortcut: cap views at caps %v of a cap-%d state", caps, f.cap)
		}
	}
	t, p := s.T, s.P
	np, nc := len(f.rank), len(caps)
	// from[k+1] is the index of the first cap above k, for k from -1 to
	// np-1: the first view at which a rank at position k counts.
	from := make([]int32, np+1)
	for k, ci := -1, 0; k < np; k++ {
		for ci < nc && caps[ci] <= k {
			ci++
		}
		from[k+1] = int32(ci)
	}
	w := nc + 1 // a rank's row of each difference array: one per view, and a sink
	present := make([]int32, np*w)
	admitted := make([]int32, np*w)
	mark := make([]int32, np) // v+1 for the ranks present at v
	low := make([]int32, np)  // by rank: a at the vertex being swept
	var ranks []int32
	for v := range t.Parent {
		stamp := int32(v + 1)
		ranks = ranks[:0]
		if pi := p.Of[v]; pi != -1 {
			r := f.rank[pi]
			mark[r], low[r] = stamp, -1
			ranks = append(ranks, r)
		}
		// Every list but the root's, which is empty, is read once, by the
		// parent: for what the child admits and what is present at v.
		for _, c := range t.Children[v] {
			for k, r := range f.list(c) {
				admitted[int(r)*w+int(from[k+1])]++
				switch {
				case mark[r] != stamp:
					mark[r], low[r] = stamp, int32(k)
					ranks = append(ranks, r)
				case int32(k) < low[r]:
					low[r] = int32(k)
				}
			}
		}
		for _, r := range ranks {
			present[int(r)*w+int(from[low[r]+1])]++
		}
	}
	sizes := make([]int, nc*np)
	blocks := make([]int, nc*np)
	for part, r := range f.rank {
		row := int(r) * w
		var pres, adm int
		for ci := range caps {
			pres += int(present[row+ci])
			adm += int(admitted[row+ci])
			sizes[ci*np+int(r)] = adm
			blocks[ci*np+part] = pres - adm
		}
	}
	views := make([]*Shortcut, nc)
	for ci, c := range caps {
		m := Measurement{
			Congestion:   min(c, f.m.Congestion),
			Blocks:       blocks[ci*np : (ci+1)*np : (ci+1)*np],
			TreeDiameter: f.m.TreeDiameter,
		}
		m.finish()
		views[ci] = &Shortcut{G: s.G, T: t, P: p, flood: &floodLists{
			admitted: f.admitted, cap: c, prefix: c,
			size: sizes[ci*np : (ci+1)*np : (ci+1)*np], rank: f.rank, m: m,
		}}
	}
	return views, nil
}

// Compact returns s unless s is a cap view. For a view it returns the
// flood-built shortcut ConstructPrio at the view's cap would: the same
// state and measurement, held as ConstructPrio holds them. Where the view
// cuts a list it shares, the prefixes are copied out, so the result keeps
// no larger cap's lists alive.
func (s *Shortcut) Compact() *Shortcut {
	f := s.flood
	if f == nil || f.prefix == 0 {
		return s
	}
	own := *f
	own.prefix = 0
	own.size = slices.Clone(f.size)
	own.m.Blocks = slices.Clone(f.m.Blocks)
	total, cut := 0, false
	for v, l := range f.admitted {
		total += len(f.list(v))
		cut = cut || len(l) > f.prefix
	}
	if cut {
		own.admitted = make([][]int32, len(f.admitted))
		arena := make([]int32, 0, total)
		for v := range f.admitted {
			if l := f.list(v); len(l) > 0 {
				start := len(arena)
				arena = append(arena, l...)
				own.admitted[v] = arena[start:len(arena):len(arena)]
			}
		}
	}
	return &Shortcut{G: s.G, T: s.T, P: s.P, flood: &own}
}

// ValidPriorities checks that prio is a permutation of 0..numParts-1 (nil
// is the identity and always valid): a rank out of range would index past
// the rank-indexed counts of the flood pass, and a duplicate rank would
// silently merge two parts' floods — one part losing every edge.
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

// FromFloodState returns the flood-built Shortcut described by a
// flooding-construction state: admitted[v] lists, in rank space (see
// FloodState), the parts admitted over v's parent edge; prio maps part to
// rank (nil = identity) and must be a permutation of 0..NumParts-1. A
// maintained shortcut's repaired state becomes a shortcut through here. The
// shortcut keeps admitted as its flooding state and builds no edge lists,
// exactly as ConstructPrio's does, so the caller hands the state over and
// must not modify it afterwards.
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
	if err := checkFloodInput(g, t, p, prio); err != nil {
		return nil, err
	}
	if len(admitted) != g.N() {
		return nil, fmt.Errorf("%w: %d admitted lists for %d vertices", ErrMalformedFloodState, len(admitted), g.N())
	}
	f, err := measureFloodState(t, p, admitted, prio, 0)
	if err != nil {
		return nil, err
	}
	return &Shortcut{G: g, T: t, P: p, flood: f}, nil
}

// checkFloodInput is the validation every flood-built shortcut shares: a
// valid ranking, a tree and a part family of g, and no empty part.
func checkFloodInput(g *graph.Graph, t *graph.Tree, p *partition.Parts, prio []int32) error {
	if err := ValidPriorities(prio, p.NumParts()); err != nil {
		return err
	}
	if t.G != g {
		return fmt.Errorf("shortcut: tree belongs to a different graph")
	}
	if p.G != g {
		return fmt.Errorf("shortcut: parts belong to a different graph")
	}
	for i, set := range p.Sets {
		if len(set) == 0 {
			return fmt.Errorf("shortcut: part %d is empty", i)
		}
	}
	return nil
}

// floodLists is a flood-built shortcut's flooding state with what its
// readers need: list(v) holds the ranks admitted over v's parent edge,
// size[r] the edge count of rank r's part, rank maps part to rank, and m is
// the state's measurement.
//
// cap is the cap of the flooding fixed point the state is, the one
// ConstructPrio generated it at, or 0 for a state FromFloodState was
// handed. A cap view (CapViews) shares a larger cap's admitted lists and
// reads each cut to its first prefix ranks; prefix is 0 for a state that
// reads its lists whole.
type floodLists struct {
	admitted [][]int32
	cap      int
	prefix   int
	size     []int
	rank     []int32
	m        Measurement
}

// list returns the ranks admitted over v's parent edge, ascending.
func (f *floodLists) list(v int) []int32 {
	l := f.admitted[v]
	if f.prefix > 0 && len(l) > f.prefix {
		return l[:f.prefix:f.prefix]
	}
	return l
}

// fillEdges assembles the per-part edge lists of a flooding state. The
// total assignment size Σᵥ|admitted(v)| reaches Θ(n·cap) at scale, so the
// lists are carved out of one counted slab instead of grown with append:
// measureFloodState counted, a prefix sum places each part's region, and a
// fill pass writes it. The fill visits tree edges in ascending ID order, so
// every region comes out sorted. The lists are duplicate-free (admitted
// ranks are strictly ascending per vertex, and distinct vertices have
// distinct parent edges) and every ID is a tree edge by definition, so
// New's sortedDedup copy and tree-membership sweep are not needed.
func fillEdges(g *graph.Graph, t *graph.Tree, f *floodLists) [][]int {
	np := len(f.rank)
	off := make([]int, np+1)
	for part, r := range f.rank {
		off[part+1] = f.size[r]
	}
	for i := 0; i < np; i++ {
		off[i+1] += off[i]
	}
	slab := make([]int, off[np])
	cur := make([]int, np) // by rank: the next free slot of the rank's part
	for part, r := range f.rank {
		cur[r] = off[part]
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
		for _, r := range f.list(int(v)) {
			slab[cur[r]] = id
			cur[r]++
		}
	}
	edges := make([][]int, np)
	for i := range edges {
		edges[i] = slab[off[i]:off[i+1]:off[i+1]]
	}
	return edges
}

// measureFloodState is the one children-first walk over a flooding state.
// With cap 0 it checks and measures admitted, a state of one list per
// vertex (see FromFloodState). With cap ≥ 1 admitted must be nil: the pass
// generates the fixed point at that cap as it goes, applying admit to the
// ranks present at each vertex, and checks and measures what it generated.
// Either way the result holds the state with each rank's edge count and
// the measurement. Vertices are visited in reverse BFS order, so every
// child's list is final and checked before its parent reads it, and all
// counting is in rank space, mapped to parts once at the end.
//
// In a grounded state the admitted ranks at v are a subset of the present
// ones, so part i's block count — #{v : i present, i not admitted} — is
// #{v : i present} − |Hᵢ|. The pass therefore counts presence alone, with
// one rank-indexed stamp array in place of a per-part union-find, and
// subtracts the edge counts at the end.
func measureFloodState(t *graph.Tree, p *partition.Parts, admitted [][]int32, prio []int32, cap int) (*floodLists, error) {
	np := p.NumParts()
	generate := cap > 0
	if generate {
		admitted = make([][]int32, len(t.Parent))
	}
	f := &floodLists{admitted: admitted, size: make([]int, np)}
	m := Measurement{TreeDiameter: treeDiameter(t), Blocks: make([]int, np)}
	seen := make([]int, np) // by rank: #{v : rank present at v}
	// ps.mark[r] == v+1 iff rank r is present at v. Each vertex is visited
	// once, so v+1 is a fresh stamp and the array is never cleared.
	ps := presence{mark: make([]int32, np)}
	// Generated lists are carved from chunked arenas rather than allocated
	// one per vertex: at scale the fixed point holds Θ(n·cap) ranks, and n
	// separate allocations (plus their zeroing) dominate the pass. Headroom
	// is tracked by hand because the cap parameter shadows the builtin.
	var arena []int32
	arenaFree := 0
	for oi := len(t.Order) - 1; oi >= 0; oi-- {
		v := t.Order[oi]
		stamp := int32(v + 1)
		for _, r := range ps.gather(t, p, prio, admitted, v, stamp) {
			seen[r]++
		}
		if generate {
			if list := ps.admit(t, v, cap); len(list) > 0 {
				k := len(list)
				if k > arenaFree {
					// The shortcut keeps its state for life, so a chunk is
					// no larger than the unvisited vertices, oi+1 of them,
					// can fill: a small instance keeps no unused tail.
					arenaFree = max(k, min(1<<15, (oi+1)*min(cap, np)))
					arena = make([]int32, 0, arenaFree)
				}
				start := len(arena)
				arena = append(arena, list...)
				arenaFree -= k
				admitted[v] = arena[start:len(arena):len(arena)]
			}
		}
		list := admitted[v]
		if len(list) > 0 && t.ParentEdge[v] == -1 {
			return nil, fmt.Errorf("%w: vertex %d has no parent edge but admits %d ranks",
				ErrMalformedFloodState, v, len(list))
		}
		for k, r := range list {
			switch {
			case r < 0 || int(r) >= np:
				return nil, fmt.Errorf("%w: vertex %d admits rank %d outside [0, %d)",
					ErrMalformedFloodState, v, r, np)
			case k > 0 && r <= list[k-1]:
				return nil, fmt.Errorf("%w: vertex %d admits ranks %v, not strictly ascending",
					ErrMalformedFloodState, v, list)
			case ps.mark[r] != stamp:
				return nil, fmt.Errorf("%w: vertex %d admits rank %d, present at neither its own part nor a child",
					ErrMalformedFloodState, v, r)
			}
			f.size[r]++
		}
		m.Congestion = max(m.Congestion, len(list))
	}
	// ps.mark is spent, so it becomes the part -> rank mapping.
	f.rank = ps.mark
	for part := range f.rank {
		r := int32(part)
		if prio != nil {
			r = prio[part]
		}
		f.rank[part] = r
		m.Blocks[part] = seen[r] - f.size[r]
	}
	m.finish()
	f.m = m
	return f, nil
}

// mergeChildren is the most tree children at which presence.gather
// merges the children's lists. Above it, marking and sorting is cheaper:
// merging pairwise costs O(children · ranks), and a wheel's hub is the
// tree parent of nearly every rim vertex.
const mergeChildren = 3

// presence collects the ranks present at a vertex: its own part's and
// every rank a child admits over its parent edge, each once. mark is
// rank-indexed: gather sets mark[r] = stamp for every rank it collects, so
// a stamp must differ from every value mark already holds. ranks and spare
// are the merge's two buffers, and sorted reports whether ranks ascends.
type presence struct {
	mark         []int32
	ranks, spare []int32
	sorted       bool
}

// gather collects, and returns, the ranks present at v. The children's
// lists are ascending, so at a vertex with at most mergeChildren tree
// children the ranks are merged and come out ascending; at one with more
// they are collected unordered and admit sorts them.
func (ps *presence) gather(t *graph.Tree, p *partition.Parts, prio []int32, admitted [][]int32, v int, stamp int32) []int32 {
	buf := ps.ranks[:0]
	if pi := p.Of[v]; pi != -1 {
		r := int32(pi)
		if prio != nil {
			r = prio[pi]
		}
		ps.mark[r] = stamp
		buf = append(buf, r)
	}
	kids := t.Children[v]
	if ps.sorted = len(kids) <= mergeChildren; ps.sorted {
		for _, c := range kids {
			buf, ps.spare = mergeRanks(ps.spare[:0], buf, admitted[c]), buf
		}
		for _, r := range buf {
			ps.mark[r] = stamp
		}
	} else {
		for _, c := range kids {
			for _, r := range admitted[c] {
				if ps.mark[r] != stamp {
					ps.mark[r] = stamp
					buf = append(buf, r)
				}
			}
		}
	}
	ps.ranks = buf
	return buf
}

// admit is the flooding rule at v, shared by measureFloodState's
// generation step and the dirty-closure recompute of Repair: of the ranks
// gather last collected, at v, the (up to) cap best, ascending, and none
// at the root, which has no parent edge. It returns a prefix of them.
func (ps *presence) admit(t *graph.Tree, v, cap int) []int32 {
	if t.ParentEdge[v] == -1 {
		return nil
	}
	if !ps.sorted {
		slices.Sort(ps.ranks)
	}
	return ps.ranks[:min(len(ps.ranks), cap)]
}

// mergeRanks appends to dst the union of a and b, both ascending, once
// each and ascending.
func mergeRanks(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
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
