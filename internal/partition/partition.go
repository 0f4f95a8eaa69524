// Package partition implements the "parts" of the shortcut framework
// (paper Definition 9): pairwise disjoint, individually connected vertex
// subsets of a network graph, plus generators for the part families used in
// experiments (Voronoi parts, Borůvka fragments, adversarial skinny parts).
package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Parts is a family of disjoint connected vertex subsets. Not every vertex
// needs to belong to a part.
type Parts struct {
	G    *graph.Graph
	Sets [][]int // part index -> sorted vertex list
	Of   []int   // vertex -> part index, or -1
}

// New builds and validates a Parts family.
func New(g *graph.Graph, sets [][]int) (*Parts, error) {
	return build(g, sets, true)
}

// NewUnchecked builds a Parts family skipping the per-part connectivity
// BFS. For part families that are connected by construction (Voronoi cells,
// Borůvka fragments, connected-component splits) the check is pure
// overhead; disjointness, vertex ranges, and non-emptiness are still
// enforced.
func NewUnchecked(g *graph.Graph, sets [][]int) (*Parts, error) {
	return build(g, sets, false)
}

func build(g *graph.Graph, sets [][]int, checkConnected bool) (*Parts, error) {
	p := &Parts{G: g, Sets: make([][]int, len(sets)), Of: make([]int, g.N())}
	for i := range p.Of {
		p.Of[i] = -1
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	store := make([]int, 0, total) // all set copies share one backing array
	for i, s := range sets {
		base := len(store)
		store = append(store, s...)
		p.Sets[i] = store[base:len(store):len(store)]
		sort.Ints(p.Sets[i])
		for _, v := range p.Sets[i] {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("partition: part %d has invalid vertex %d", i, v)
			}
			if p.Of[v] != -1 {
				return nil, fmt.Errorf("partition: vertex %d in parts %d and %d", v, p.Of[v], i)
			}
			p.Of[v] = i
		}
	}
	for i, s := range p.Sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("partition: part %d empty", i)
		}
		if checkConnected && !graph.ConnectedSubset(g, s) {
			return nil, fmt.Errorf("partition: part %d not connected", i)
		}
	}
	return p, nil
}

// Validate re-checks disjointness (via Of) and per-part connectivity.
func (p *Parts) Validate() error {
	for i, s := range p.Sets {
		if len(s) == 0 {
			return fmt.Errorf("partition: part %d empty", i)
		}
		if !graph.ConnectedSubset(p.G, s) {
			return fmt.Errorf("partition: part %d not connected", i)
		}
		for _, v := range s {
			if p.Of[v] != i {
				return fmt.Errorf("partition: Of[%d]=%d, expected %d", v, p.Of[v], i)
			}
		}
	}
	return nil
}

// NumParts returns the number of parts.
func (p *Parts) NumParts() int { return len(p.Sets) }

// Voronoi partitions all vertices of a connected graph into numSeeds
// connected cells by multi-source BFS from random distinct seeds.
func Voronoi(g *graph.Graph, numSeeds int, rng *rand.Rand) (*Parts, error) {
	if numSeeds < 1 || numSeeds > g.N() {
		return nil, fmt.Errorf("partition: %d seeds for %d vertices", numSeeds, g.N())
	}
	seeds := rng.Perm(g.N())[:numSeeds]
	r := graph.MultiBFS(g, seeds)
	// CSR fill: count cell sizes, slice one backing array, fill in vertex
	// order (so each cell comes out sorted).
	size := make([]int32, numSeeds)
	for _, o := range r.Owner {
		if o == -1 {
			return nil, fmt.Errorf("partition: %w", graph.ErrDisconnected)
		}
		size[o]++
	}
	sets := make([][]int, numSeeds)
	store := make([]int, 0, g.N())
	for i := 0; i < numSeeds; i++ {
		base := len(store)
		store = store[:base+int(size[i])]
		sets[i] = store[base : base : base+int(size[i])]
	}
	for v, o := range r.Owner {
		sets[o] = append(sets[o], v)
	}
	return NewUnchecked(g, sets) // BFS cells are connected by construction
}

// BoruvkaFragments returns the parts after `phases` rounds of sequential
// Borůvka on g: each fragment (a partial MST component) is one part. This is
// exactly the part family the distributed MST algorithm feeds to the
// shortcut framework. A negative phase count is an error, as in
// BoruvkaTrace.
func BoruvkaFragments(g *graph.Graph, phases int) (*Parts, error) {
	_, p, err := BoruvkaTrace(g, phases)
	return p, err
}

// BoruvkaPhase records one phase of the sequential Borůvka run in the
// dense fragment-label space a distributed replay needs: labels are
// assigned in smallest-member order, and part indices are the labels.
type BoruvkaPhase struct {
	// Frag is each vertex's fragment label at the start of the phase.
	Frag []int32
	// NumFrags is the number of fragments at the start of the phase.
	NumFrags int
	// Best is, per fragment, the lightest outgoing edge chosen this phase
	// (graph.EdgeLess order), or -1 for a fragment with no outgoing edge.
	Best []int32
}

// BoruvkaTrace runs sequential Borůvka for up to `phases` phases and
// returns, besides the resulting fragment parts, the per-phase merge trace
// — fragment labels and chosen lightest outgoing edges. The trace is the
// ground truth every distributed Borůvka replays through one per-phase
// routine (congest.ReplayBoruvkaPhase): each phase's Best is one part-wise
// min aggregation of the members' locally known outgoing edges, and the
// merge one min-ID aggregation over the next phase's fragments. The
// in-network decomposition (congest.BoruvkaDecompose) runs both over the
// empty shortcut, and the MST algorithms (package mst) over their
// shortcuts. A phase in which no fragment has an outgoing edge ends the
// run early (exactly as BoruvkaFragments stopped), so the trace can be
// shorter than `phases`. A negative phase count is an error, and so is a
// NaN edge weight, which no lightest-edge order can rank; zero phases
// leave every vertex its own fragment. RemoveEdge tombstones are skipped.
func BoruvkaTrace(g *graph.Graph, phases int) ([]BoruvkaPhase, *Parts, error) {
	if phases < 0 {
		return nil, nil, fmt.Errorf("partition: negative Borůvka phase count %d", phases)
	}
	for id := 0; id < g.M(); id++ {
		if w := g.Edge(id).W; math.IsNaN(w) {
			return nil, nil, fmt.Errorf("partition: edge %d has weight %v", id, w)
		}
	}
	uf := graph.NewUnionFind(g.N())
	best := g.AcquireScratch() // fragment root -> lightest outgoing edge ID
	defer g.ReleaseScratch(best)
	label := g.AcquireScratch() // fragment root -> dense label + 1
	defer g.ReleaseScratch(label)
	roots := make([]int, 0, g.N())
	frag, numFrags := denseLabels(g, uf, label)
	var trace []BoruvkaPhase
	for ph := 0; ph < phases; ph++ {
		best.Reset()
		roots = roots[:0]
		for id := 0; id < g.M(); id++ {
			if g.EdgeRemoved(id) {
				continue
			}
			e := g.Edge(id)
			ru, rv := uf.Find(e.U), uf.Find(e.V)
			if ru == rv {
				continue
			}
			for _, r := range [2]int{ru, rv} {
				if b, ok := best.Get(r); !ok {
					best.Set(r, int32(id))
					roots = append(roots, r)
				} else if graph.EdgeLess(g, id, int(b)) {
					best.Set(r, int32(id))
				}
			}
		}
		if len(roots) == 0 {
			break
		}
		rec := BoruvkaPhase{Frag: frag, NumFrags: numFrags}
		rec.Best = make([]int32, rec.NumFrags)
		for i := range rec.Best {
			rec.Best[i] = -1
		}
		for _, r := range roots {
			id, _ := best.Get(r)
			rec.Best[rec.Frag[r]] = id
		}
		for _, r := range roots {
			id, _ := best.Get(r)
			e := g.Edge(int(id))
			uf.Union(e.U, e.V)
		}
		frag, numFrags = denseLabels(g, uf, label)
		trace = append(trace, rec)
	}
	return trace, fromLabels(g, frag, numFrags), nil
}

// Parts returns the phase's fragments as a part family: fragment f is part
// f. Fragments grow along edges, so each is connected by construction and
// no connectivity check runs.
func (ph *BoruvkaPhase) Parts(g *graph.Graph) *Parts {
	return fromLabels(g, ph.Frag, ph.NumFrags)
}

// LightestOutgoing returns each vertex's graph.EdgeLess-lightest incident
// edge into another fragment of the phase, or -1 — what a vertex decides
// locally from its neighbors' fragment labels. A fragment's Best is the
// lightest of its members' entries.
func (ph *BoruvkaPhase) LightestOutgoing(g *graph.Graph) []int32 {
	out := make([]int32, g.N())
	for v := range out {
		best := -1
		for _, a := range g.Adj(v) {
			if ph.Frag[a.To] != ph.Frag[v] && (best == -1 || graph.EdgeLess(g, a.ID, best)) {
				best = a.ID
			}
		}
		out[v] = int32(best)
	}
	return out
}

// fromLabels carves the parts of a dense labeling from one slab: sizes
// first, then members in vertex order, so every set comes out sorted.
func fromLabels(g *graph.Graph, frag []int32, num int) *Parts {
	p := &Parts{G: g, Sets: make([][]int, num), Of: make([]int, len(frag))}
	size := make([]int, num)
	for _, l := range frag {
		size[l]++
	}
	store := make([]int, len(frag))
	base := 0
	for l, sz := range size {
		p.Sets[l] = store[base : base : base+sz]
		base += sz
	}
	for v, l := range frag {
		p.Sets[l] = append(p.Sets[l], v)
		p.Of[v] = int(l)
	}
	return p
}

// denseLabels assigns each union-find fragment a dense label in
// smallest-member order and returns the per-vertex labeling and the number
// of labels. The label scratch is reset here; callers just lend it.
func denseLabels(g *graph.Graph, uf *graph.UnionFind, label *graph.Scratch) ([]int32, int) {
	label.Reset()
	out := make([]int32, g.N())
	num := int32(0)
	for v := 0; v < g.N(); v++ {
		r := uf.Find(v)
		l, ok := label.Get(r)
		if !ok {
			l = num
			label.Set(r, l)
			num++
		}
		out[v] = l
	}
	return out, int(num)
}

// GridRows returns the rows of a rows x cols grid as parts: long skinny
// parts, the adversarial family for planar shortcut quality.
func GridRows(g *graph.Graph, rows, cols int) (*Parts, error) {
	if rows*cols != g.N() {
		return nil, fmt.Errorf("partition: grid dims %dx%d do not match n=%d", rows, cols, g.N())
	}
	sets := make([][]int, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sets[r] = append(sets[r], r*cols+c)
		}
	}
	return New(g, sets)
}

// PathsAsParts wraps explicit vertex lists (e.g. the paths of the
// lower-bound family) as parts.
func PathsAsParts(g *graph.Graph, paths [][]int) (*Parts, error) {
	return New(g, paths)
}

// RimArcs splits the rim of a wheel graph (hub = vertex n-1) into numArcs
// contiguous arcs, the paper's §2.3.2 cycle-vs-wheel scenario.
func RimArcs(g *graph.Graph, numArcs int) (*Parts, error) {
	rim := g.N() - 1
	if numArcs < 1 || numArcs > rim {
		return nil, fmt.Errorf("partition: %d arcs for rim of %d", numArcs, rim)
	}
	sets := make([][]int, numArcs)
	for i := 0; i < rim; i++ {
		a := i * numArcs / rim
		sets[a] = append(sets[a], i)
	}
	return New(g, sets)
}
