package shortcut

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// MaxAugmentedEcc returns the maximum over parts of the hop eccentricity of
// the part's first member (P.Sets[i][0]) in its augmented subgraph
// G[Pᵢ] + Hᵢ. This is the cap search's quality probe: one BFS per part
// instead of AugmentedDiameter's all-pairs sweep, and ecc ≤ diameter ≤
// 2·ecc, so it tracks the quantity the framework bounds while staying cheap
// enough to evaluate per doubling guess. An empty part, or a part whose
// augmented subgraph is disconnected (an error wrapping
// graph.ErrDisconnected, naming the lowest such part), is an explicit
// error, as in AugmentedDiameter.
//
// A flood-built shortcut (ConstructPrio, FromFloodState) is probed through
// an EccProbe built for the call, which skips the parts that cannot raise
// the maximum; an edge-built shortcut has each of its parts probed. A
// caller probing many shortcuts over one part family builds the EccProbe
// once and calls its MaxAugmentedEcc instead. Either way the result is the
// one a BFS over every part would give.
func (s *Shortcut) MaxAugmentedEcc() (int, error) {
	var e *EccProbe
	if s.flood != nil {
		e = NewEccProbe(s.G, s.T, s.P)
	}
	ecc, _, err := s.maxAugmentedEcc(e)
	return ecc, err
}

// EccProbe is the part of MaxAugmentedEcc that depends only on the graph,
// the tree and the part family, so the cap search computes it once and
// every guess reuses it: a per-part bound on the augmented eccentricity of
// any flood-built shortcut, and the order the probe visits the parts in.
//
// Part i's bound is Bᵢ = max over members x of dist(sᵢ, x) + depth_T(x),
// with sᵢ = Pᵢ[0] and dist taken in G[Pᵢ]. The flood pass checks every
// flood-built state grounded, so each vertex w of Hᵢ is a member x, or an
// ancestor of one joined to it by an upward chain of Hᵢ edges, and
// dist(sᵢ, w) ≤ dist(sᵢ, x) + depth(x) − depth(w) ≤ Bᵢ, whatever the cap.
// The same chains make G[Pᵢ] + Hᵢ connected whenever G[Pᵢ] is. Bᵢ is
// undefined when G[Pᵢ] is disconnected.
//
// The probe visits the parts without a bound first, by index, then the
// rest by descending Bᵢ, and stops at the first part whose Bᵢ is no more
// than the largest eccentricity found so far: neither it nor any later
// part can raise the maximum. A bounded part is connected, so the parts it
// skips cannot hold an error either, and the unbounded parts, the only
// ones that can, are probed in index order: the error names the lowest
// disconnected part, as a probe of every part in index order would.
type EccProbe struct {
	g     *graph.Graph
	t     *graph.Tree
	p     *partition.Parts
	bound []int32 // per part: Bᵢ, or -1 where it is undefined
	order []int32 // probe order: unbounded parts by index, then descending Bᵢ
}

// NewEccProbe computes the bounds and the probe order of a part family: one
// BFS per part over G[Pᵢ]. t and p must be a tree and a part family of g.
func NewEccProbe(g *graph.Graph, t *graph.Tree, p *partition.Parts) *EccProbe {
	if t.G != g || p.G != g {
		panic("shortcut.NewEccProbe: tree and parts must belong to the graph")
	}
	np := p.NumParts()
	e := &EccProbe{g: g, t: t, p: p, bound: make([]int32, np), order: make([]int32, np)}
	largest := 0
	for _, set := range p.Sets {
		largest = max(largest, len(set))
	}
	seen := g.AcquireScratch()
	defer g.ReleaseScratch(seen)
	queue := make([]int32, 0, largest)
	for i, set := range p.Sets {
		e.order[i] = int32(i)
		e.bound[i] = -1
		if len(set) == 0 {
			continue
		}
		seen.Reset()
		seen.Visit(set[0])
		queue = append(queue[:0], int32(set[0]))
		b := int32(0)
		for level, start := int32(0), 0; start < len(queue); level++ {
			end := len(queue)
			for _, u := range queue[start:end] {
				b = max(b, level+int32(t.Depth[u]))
				for _, a := range g.Adj(int(u)) {
					if p.Of[a.To] == i && seen.Visit(a.To) {
						queue = append(queue, int32(a.To))
					}
				}
			}
			start = end
		}
		if len(queue) == len(set) {
			e.bound[i] = b
		}
	}
	key := func(i int32) int32 { // descending key; no bound sorts first
		if b := e.bound[i]; b >= 0 {
			return b
		}
		return math.MaxInt32
	}
	slices.SortStableFunc(e.order, func(a, b int32) int { return cmp.Compare(key(b), key(a)) })
	return e
}

// MaxAugmentedEcc returns s.MaxAugmentedEcc(), the same maximum or the same
// error, using e's bounds when s is flood-built. s must be a shortcut over
// e's graph, tree and part family.
func (e *EccProbe) MaxAugmentedEcc(s *Shortcut) (int, error) {
	if s.G != e.g || s.T != e.t || s.P != e.p {
		return 0, fmt.Errorf("shortcut: eccentricity probe built for a different graph, tree or part family")
	}
	ecc, _, err := s.maxAugmentedEcc(e)
	return ecc, err
}

// maxAugmentedEcc runs the probe's BFSs and also returns how many parts it
// walked. Each kind of shortcut has one path (see augWalk).
//
//   - A flood-built shortcut's parts are visited in e's order, pruned by
//     e's bounds, when e is non-nil, and in index order otherwise.
//   - An edge-built shortcut's parts are visited in index order.
func (s *Shortcut) maxAugmentedEcc(e *EccProbe) (maxEcc, probed int, err error) {
	p := s.P
	for i, set := range p.Sets {
		if len(set) == 0 {
			return 0, 0, fmt.Errorf("shortcut: part %d is empty, augmented eccentricity undefined", i)
		}
	}
	w := s.newAugWalk()
	defer w.release()
	for k := range p.Sets {
		i := k
		if s.flood != nil && e != nil {
			if i = int(e.order[k]); e.bound[i] >= 0 && int(e.bound[i]) <= maxEcc {
				break
			}
		}
		probed++
		w.thread(i)
		maxEcc = max(maxEcc, w.bfs(i, p.Sets[i][0]))
		if !w.connected(i) {
			return 0, 0, fmt.Errorf("shortcut: augmented subgraph of part %d is disconnected: %w", i, graph.ErrDisconnected)
		}
	}
	return maxEcc, probed, nil
}

// AugmentedDiameter returns the hop diameter of G[Pᵢ] + Hᵢ — the subgraph
// induced by the part plus its shortcut edges (with their endpoints). The
// framework's promise is that this is O(bᵢ · d_T). It runs the probe's
// BFS from the part's first member, and then from every vertex that BFS
// reached.
//
// An empty part or a disconnected augmented subgraph (shortcut edges that
// never touch the part, or a part that was built unchecked and is itself
// disconnected) is an explicit error: before this check the empty case
// returned diameter 0, masquerading as a perfectly-helped part.
func (s *Shortcut) AugmentedDiameter(i int) (int, error) {
	if i < 0 || i >= s.P.NumParts() {
		return 0, fmt.Errorf("shortcut: part %d out of range for %d parts", i, s.P.NumParts())
	}
	if len(s.P.Sets[i]) == 0 {
		return 0, fmt.Errorf("shortcut: part %d is empty, augmented diameter undefined", i)
	}
	w := s.newAugWalk()
	defer w.release()
	w.thread(i)
	d := w.bfs(i, s.P.Sets[i][0])
	if !w.connected(i) {
		return 0, fmt.Errorf("shortcut: augmented subgraph of part %d is disconnected: %w", i, graph.ErrDisconnected)
	}
	reached := slices.Clone(w.queue)
	for _, v := range reached[1:] {
		d = max(d, w.bfs(i, int(v)))
	}
	return d, nil
}

// augWalk is the one BFS over an augmented subgraph G[Pᵢ] + Hᵢ, walking G
// and T directly: from u it follows u's G-edges inside Pᵢ when u is a
// member, u's parent edge when that edge is in Hᵢ, and the parent edge of
// each child that has it in Hᵢ. thread first threads the part's Hᵢ edges
// into per-parent child lists, so a part costs O(|Pᵢ|·deg + |Hᵢ|) whatever
// the tree degree of the vertices it reaches. Three pooled scratch arenas
// and one queue serve every part.
//
//   - A flood-built shortcut's Hᵢ comes from the flooding state, which the
//     walk never turns into edge lists: the state is grounded, so walking
//     up from each member while the parent edge admits the part's rank (a
//     binary search) meets every Hᵢ edge once. The part is connected when
//     the BFS reaches all Blocks[i] + |Hᵢ| vertices of G[Pᵢ] + Hᵢ: every
//     vertex where the part is present tops a block or admits it over its
//     parent edge.
//   - An edge-built shortcut's Hᵢ is threaded from its sorted list, and the
//     part is connected when the BFS reaches every member and every
//     endpoint of Hᵢ.
type augWalk struct {
	s     *Shortcut
	edges [][]int // an edge-built shortcut's lists, nil for a flood-built one
	// seen marks the vertices the last BFS reached; head[v] is v's first
	// child whose parent edge is in Hᵢ, and next[c], set exactly for those
	// children, the one after c.
	seen, head, next *graph.Scratch
	queue            []int32 // the last BFS's vertices, in BFS order
}

func (s *Shortcut) newAugWalk() *augWalk {
	g, p, f := s.G, s.P, s.state() // the state thread and connected read
	w := &augWalk{s: s}
	largest := 0 // |V(G[Pᵢ] + Hᵢ)|, or a bound on it
	if f != nil {
		for i := range p.Sets {
			largest = max(largest, f.m.Blocks[i]+f.size[f.rank[i]])
		}
	} else {
		w.edges = s.Edges()
		for i, set := range p.Sets {
			largest = max(largest, len(set)+2*len(w.edges[i]))
		}
	}
	w.seen, w.head, w.next = g.AcquireScratch(), g.AcquireScratch(), g.AcquireScratch()
	w.queue = make([]int32, 0, largest)
	return w
}

func (w *augWalk) release() {
	g := w.s.G
	g.ReleaseScratch(w.seen)
	g.ReleaseScratch(w.head)
	g.ReleaseScratch(w.next)
}

// thread makes head and next part i's Hᵢ.
func (w *augWalk) thread(i int) {
	g, t, p, f := w.s.G, w.s.T, w.s.P, w.s.flood
	w.head.Reset()
	w.next.Reset()
	link := func(c int) {
		par := t.Parent[c]
		w.next.Set(c, w.head.GetOr(par, -1))
		w.head.Set(par, int32(c))
	}
	if f != nil {
		r := f.rank[i]
		for _, x := range p.Sets[i] {
			for v := x; t.Parent[v] >= 0 && !w.next.Has(v); v = t.Parent[v] {
				if _, ok := slices.BinarySearch(f.list(v), r); !ok {
					break
				}
				link(v)
			}
		}
		return
	}
	for _, id := range w.edges[i] {
		c := g.Edge(id).U
		if t.ParentEdge[c] != id {
			c = g.Edge(id).V
		}
		link(c)
	}
}

// bfs walks part i's augmented subgraph, as last threaded, from src and
// returns src's eccentricity in what it reaches.
func (w *augWalk) bfs(i, src int) int {
	g, t, p := w.s.G, w.s.T, w.s.P
	seen, head, next := w.seen, w.head, w.next
	seen.Reset()
	seen.Visit(src)
	queue := append(w.queue[:0], int32(src))
	level := 0
	for start := 0; ; level++ {
		end := len(queue)
		for _, u32 := range queue[start:end] {
			u := int(u32)
			if p.Of[u] == i {
				for _, a := range g.Adj(u) {
					if p.Of[a.To] == i && seen.Visit(a.To) {
						queue = append(queue, int32(a.To))
					}
				}
			}
			if par := t.Parent[u]; next.Has(u) && seen.Visit(par) {
				queue = append(queue, int32(par))
			}
			for c := head.GetOr(u, -1); c >= 0; c = next.GetOr(int(c), -1) {
				if seen.Visit(int(c)) {
					queue = append(queue, c)
				}
			}
		}
		if start = end; start == len(queue) {
			break
		}
	}
	w.queue = queue
	return level
}

// connected reports whether the last BFS reached all of part i's augmented
// subgraph.
func (w *augWalk) connected(i int) bool {
	if f := w.s.flood; f != nil {
		return len(w.queue) == f.m.Blocks[i]+f.size[f.rank[i]]
	}
	g := w.s.G
	for _, v := range w.s.P.Sets[i] {
		if !w.seen.Has(v) {
			return false
		}
	}
	for _, id := range w.edges[i] {
		if e := g.Edge(id); !w.seen.Has(e.U) || !w.seen.Has(e.V) {
			return false
		}
	}
	return true
}
