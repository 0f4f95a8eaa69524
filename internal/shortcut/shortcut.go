// Package shortcut implements tree-restricted low-congestion shortcuts
// (paper Definitions 9-13): the Shortcut object, exact quality measurement
// (congestion, block parameter, quality q(d) = b·d + c), and two
// constructors — the oblivious tree-claiming construction in the spirit of
// [HIZ16a] (uses no structural knowledge) and the treewidth-witness
// construction realizing Theorem 5 ([HIZ16b]).
//
// A shortcut is one of two kinds, fixed when it is built. A flood-built
// shortcut (ConstructPrio, FromFloodState) is the state a part-wise flood
// leaves, each vertex's admitted parts over its parent edge. It is
// measured at construction, with no union-find at all: in closed form
// where every part is one vertex or the cap covers every subtree's parts
// (ConstructPrio), and otherwise in the one children-first pass that
// builds or checks the state. Its state is generated on the first read
// that needs it, by that same pass, and kept for life: the cap search's
// probe walks the state, and the per-part edge lists are assembled from it
// only when Edges is first called. A cap view (CapViews) is a flood-built
// shortcut that reads a larger cap's state cut to its own cap. An
// edge-built shortcut (New, NewNormalized, Empty) is its edge lists,
// measured over epoch-stamped scratch slices (graph.Scratch) and a single
// reused union-find forest, so measuring it allocates O(parts) memory
// rather than O(parts · n) map churn.
package shortcut

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Shortcut assigns each part a set of tree edges (its Hᵢ), read through
// Edges. All edges must belong to the spanning tree T (Definition 10:
// T-restricted).
type Shortcut struct {
	G *graph.Graph
	T *graph.Tree
	P *partition.Parts

	// flood is the flooding state and measurement of a flood-built
	// shortcut; nil for an edge-built one. Its measurement is fixed at
	// construction. Its admitted lists and edge counts are generated under
	// gen by the first read that needs them (state), and never modified
	// after that.
	flood *floodLists
	gen   sync.Once
	// edges holds the per-part sorted tree edge IDs: an edge-built
	// shortcut's from construction, a flood-built one's filled from flood
	// under once by the first Edges call.
	once  sync.Once
	edges [][]int
}

// fills counts the edge-list fills of flood-built shortcuts; the package's
// tests read it to check that a read path leaves them unfilled.
var fills atomic.Int64

// state returns s.flood with its admitted lists and edge counts in place,
// generating them on the first call for a shortcut ConstructPrio measured
// in closed form. Every reader of the lists and counts gets them here, so
// any number of goroutines may make the first call at once; Measure reads
// neither and never calls it.
func (s *Shortcut) state() *floodLists {
	s.gen.Do(s.generate)
	return s.flood
}

// generate runs the flood pass of a shortcut ConstructPrio measured in
// closed form, under the ranking it copied, and keeps the state. The pass
// measures what it generates, and that measurement must be the stored
// one. See state.
func (s *Shortcut) generate() {
	f := s.flood
	if f == nil || f.admitted != nil {
		return
	}
	built, err := measureFloodState(s.T, s.P, nil, f.rank, f.cap)
	if err == nil && !built.m.equal(f.m) {
		err = fmt.Errorf("generated state measures %+v, closed form %+v", built.m, f.m)
	}
	if err != nil {
		panic(fmt.Sprintf("shortcut: generating a flooding state: internal error: %v", err))
	}
	f.admitted, f.size = built.admitted, built.size
}

// Edges returns the per-part edge lists: Edges()[i] is part i's Hᵢ, sorted
// tree edge IDs. The lists are the shortcut's own, not copies. A flood-built
// shortcut assembles them from its flooding state on the first call, which
// any number of goroutines may make at once, and keeps the state; that
// first call also generates the state if no read has yet. Only an
// edge-built shortcut's lists may be rewritten in place; a flood-built
// shortcut's measurement and probe read the state, not the lists.
func (s *Shortcut) Edges() [][]int {
	s.once.Do(s.fill)
	return s.edges
}

// fill assembles a flood-built shortcut's edge lists; see Edges.
func (s *Shortcut) fill() {
	if s.flood != nil {
		s.edges = fillEdges(s.G, s.T, s.state())
		fills.Add(1)
	}
}

// FloodState returns a flood-built shortcut's flooding state: FloodState()[v]
// lists, ascending in rank space, the ranks admitted over v's parent edge
// (nil at the root and at vertices no flood reaches). The first read of a
// shortcut ConstructPrio measured in closed form generates the state. The
// lists are the shortcut's own and must not be modified; a cap view's are
// prefixes of the lists it shares, in an outer slice made per call. It
// returns nil for an edge-built shortcut.
func (s *Shortcut) FloodState() [][]int32 {
	f := s.state()
	if f == nil {
		return nil
	}
	if f.prefix == 0 {
		return f.admitted
	}
	out := make([][]int32, len(f.admitted))
	for v := range out {
		out[v] = f.list(v)
	}
	return out
}

// New wraps and validates a shortcut assignment: t and p must belong to g
// (by identity — a tree of a different graph would silently interpret g's
// edge IDs against the wrong edge set), every assigned edge must be an edge
// of T, no part may be empty, and each part's list must be free of
// duplicates (it is returned sorted). Constructions that legitimately merge
// overlapping edge sets should use NewNormalized.
func New(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int) (*Shortcut, error) {
	return build(g, t, p, edges, false)
}

// NewNormalized is New for merge-style constructions: duplicate edge IDs
// within a part's list are deduplicated silently instead of rejected. All
// other validation (graph/tree/part identity, tree membership, non-empty
// parts) is identical to New.
func NewNormalized(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int) (*Shortcut, error) {
	return build(g, t, p, edges, true)
}

func build(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int, dedup bool) (*Shortcut, error) {
	if t.G != g {
		return nil, fmt.Errorf("shortcut: tree belongs to a different graph")
	}
	if p.G != g {
		return nil, fmt.Errorf("shortcut: parts belong to a different graph")
	}
	if len(edges) != p.NumParts() {
		return nil, fmt.Errorf("shortcut: %d edge sets for %d parts", len(edges), p.NumParts())
	}
	for i, set := range p.Sets {
		if len(set) == 0 {
			return nil, fmt.Errorf("shortcut: part %d is empty", i)
		}
	}
	s := &Shortcut{G: g, T: t, P: p, edges: make([][]int, len(edges))}
	for i, ids := range edges {
		for _, id := range ids {
			if id < 0 || id >= g.M() {
				return nil, fmt.Errorf("shortcut: part %d has invalid edge %d", i, id)
			}
			if !t.IsTreeEdge(id) {
				return nil, fmt.Errorf("shortcut: part %d edge %d is not a tree edge", i, id)
			}
		}
		out := sortedDedup(ids)
		if !dedup && len(out) != len(ids) {
			return nil, fmt.Errorf("shortcut: part %d has %d duplicate edge IDs", i, len(ids)-len(out))
		}
		s.edges[i] = out
	}
	return s, nil
}

// sortedDedup returns a fresh sorted slice of the distinct values of ids.
func sortedDedup(ids []int) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	sort.Ints(out)
	w := 0
	for r, id := range out {
		if r == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

// Empty returns the all-empty shortcut (every part gets no help).
func Empty(g *graph.Graph, t *graph.Tree, p *partition.Parts) *Shortcut {
	s, err := New(g, t, p, make([][]int, p.NumParts()))
	if err != nil {
		panic(fmt.Sprintf("shortcut.Empty: %v", err))
	}
	return s
}

// Measurement summarizes a shortcut's quality (Definitions 11-13).
type Measurement struct {
	Congestion   int   // max over edges of #parts using the edge
	MaxBlocks    int   // block parameter b: max over parts of block count
	Blocks       []int // per part
	TreeDiameter int   // 2 * height of T (upper bound used for d_T)
	Quality      int   // b * d_T + c
}

// Measure computes congestion, block parameters, and quality exactly. A
// flood-built shortcut carries its measurement, taken at construction in
// closed form or by the pass that built or checked its flooding state, and
// Measure returns a copy of it with a fresh Blocks slice: it neither
// generates the state nor assembles the edge lists. An edge-built shortcut
// is measured here: a usage count over the edge lists for the congestion
// and a union-find per part for the block counts (BlockCounts).
func (s *Shortcut) Measure() Measurement {
	if s.flood != nil {
		m := s.flood.m
		m.Blocks = slices.Clone(m.Blocks)
		return m
	}
	m := Measurement{TreeDiameter: treeDiameter(s.T)}
	use := s.G.AcquireScratch() // edge ID -> #parts using it
	for _, ids := range s.Edges() {
		for _, id := range ids {
			if c := int(use.Add(id, 1)); c > m.Congestion {
				m.Congestion = c
			}
		}
	}
	s.G.ReleaseScratch(use)
	m.Blocks = s.BlockCounts()
	m.finish()
	return m
}

// treeDiameter is the d_T the quality formula charges: twice T's height,
// or 1 for a single-vertex tree.
func treeDiameter(t *graph.Tree) int {
	if d := 2 * t.Height(); d > 0 {
		return d
	}
	return 1
}

// equal reports whether m and o agree field by field, Blocks included.
func (m Measurement) equal(o Measurement) bool {
	return m.Congestion == o.Congestion && m.MaxBlocks == o.MaxBlocks && m.TreeDiameter == o.TreeDiameter &&
		m.Quality == o.Quality && slices.Equal(m.Blocks, o.Blocks)
}

// finish derives the block parameter and the quality from the congestion,
// the per-part block counts and the tree diameter.
func (m *Measurement) finish() {
	for _, b := range m.Blocks {
		if b > m.MaxBlocks {
			m.MaxBlocks = b
		}
	}
	m.Quality = m.MaxBlocks*m.TreeDiameter + m.Congestion
}

// BlockCounts returns, per part, the number of block components: connected
// components of (V, Hᵢ) containing at least one vertex of the part
// (Definition 12; a part vertex not covered by Hᵢ is a singleton block).
func (s *Shortcut) BlockCounts() []int {
	out := make([]int, s.P.NumParts())
	// The union-find runs over a local index space of the vertices the
	// part's shortcut edges actually touch, so the whole count is
	// O(Σ|Hᵢ| + Σ|Pᵢ|) — a per-part Reset over all n vertices made this
	// quadratic in the part count, which the million-node cap search
	// cannot afford. An untouched part member is its own singleton block
	// and is counted directly by its global vertex; a touched local root
	// is counted by its (touched, hence disjoint) global vertex.
	loc := s.G.AcquireScratch() // global vertex -> local touched index
	defer s.G.ReleaseScratch(loc)
	reps := s.G.AcquireScratch()
	defer s.G.ReleaseScratch(reps)
	var touched []int
	uf := graph.NewUnionFind(0)
	for i, ids := range s.Edges() {
		loc.Reset()
		touched = touched[:0]
		for _, id := range ids {
			e := s.G.Edge(id)
			if !loc.Has(e.U) {
				loc.Set(e.U, int32(len(touched)))
				touched = append(touched, e.U)
			}
			if !loc.Has(e.V) {
				loc.Set(e.V, int32(len(touched)))
				touched = append(touched, e.V)
			}
		}
		uf.Reset(len(touched))
		for _, id := range ids {
			e := s.G.Edge(id)
			uf.Union(int(loc.GetOr(e.U, -1)), int(loc.GetOr(e.V, -1)))
		}
		reps.Reset()
		distinct := 0
		for _, v := range s.P.Sets[i] {
			r := v
			if loc.Has(v) {
				r = touched[uf.Find(int(loc.GetOr(v, -1)))]
			}
			if reps.Visit(r) {
				distinct++
			}
		}
		out[i] = distinct
	}
	return out
}

// BlockTops returns, per vertex, the sorted list of parts for which the
// vertex is the topmost point of a block of (V, Hᵢ) — the per-vertex
// decomposition of BlockCounts into locally decidable indicators. A vertex
// v tops a block of part i iff i is absent from v's own admitted set (its
// parent edge is not in Hᵢ, so no H-edge continues upward) while either a
// child admitted i (v closes one or more upward chains) or v is a member
// of part i (an uncovered member is its own singleton block). Every block
// has exactly one top, so for assignments whose H-components all touch
// their part — true for the flooding and claiming constructions, whose
// admitted chains grow upward from part vertices — the per-part sums of
// these indicators equal BlockCounts. The flood pass behind ConstructPrio
// and FromFloodState measures a flood-built shortcut by summing these
// indicators over its admitted lists, and the cap search's pipelined
// block-count convergecast checks the sums it streams to the root against
// that measurement.
//
// Each indicator depends only on state the construction protocol already
// holds at v (its own forwarded set and its children's admitted sets), so
// a deployed network computes BlockTops with zero extra communication.
func (s *Shortcut) BlockTops() [][]int32 {
	n := s.G.N()
	t := s.T
	// admitted[v]: parts whose shortcut contains v's parent edge;
	// fromChild[v]: parts admitted by at least one child of v. Iterating
	// parts in ascending order keeps both lists sorted.
	admitted := make([][]int32, n)
	fromChild := make([][]int32, n)
	for i, ids := range s.Edges() {
		for _, id := range ids {
			e := s.G.Edge(id)
			child, parent := e.U, e.V
			if t.ParentEdge[child] != id {
				child, parent = e.V, e.U
			}
			admitted[child] = append(admitted[child], int32(i))
			if l := fromChild[parent]; len(l) == 0 || l[len(l)-1] != int32(i) {
				fromChild[parent] = append(fromChild[parent], int32(i))
			}
		}
	}
	tops := make([][]int32, n)
	for v := 0; v < n; v++ {
		own := int32(-1)
		if pi := s.P.Of[v]; pi != -1 {
			own = int32(pi)
		}
		adm := admitted[v]
		ai := 0
		inAdmitted := func(i int32) bool {
			for ai < len(adm) && adm[ai] < i {
				ai++
			}
			return ai < len(adm) && adm[ai] == i
		}
		// Merge {own} into the sorted fromChild list, skipping admitted
		// parts; candidates arrive in ascending order so inAdmitted's
		// cursor advances monotonically.
		ownDone := own == -1
		for _, i := range fromChild[v] {
			if !ownDone && own < i {
				if !inAdmitted(own) {
					tops[v] = append(tops[v], own)
				}
				ownDone = true
			}
			if !ownDone && own == i {
				ownDone = true
			}
			if !inAdmitted(i) {
				tops[v] = append(tops[v], i)
			}
		}
		if !ownDone && !inAdmitted(own) {
			tops[v] = append(tops[v], own)
		}
	}
	return tops
}
