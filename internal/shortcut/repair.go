package shortcut

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// EventKind classifies a churn event applied to a maintained shortcut.
type EventKind int

const (
	// WeightUpdate replaces the weight of an existing edge. Weights never
	// enter the flooding fixed point (admission depends only on the tree and
	// the part family), so the shortcut is untouched.
	WeightUpdate EventKind = iota + 1
	// EdgeInsert adds a fresh non-tree edge between two live vertices. The
	// tree is unchanged, so the fixed point is unchanged; the new edge only
	// widens the pool of future replacement edges.
	EdgeInsert
	// EdgeDelete removes an edge. Deleting a non-tree edge leaves the fixed
	// point alone; deleting a tree edge triggers the repair proper — splice
	// in the best replacement edge, re-root the severed subtree, and
	// recompute admissions along the dirty path only.
	EdgeDelete
)

func (k EventKind) String() string {
	switch k {
	case WeightUpdate:
		return "weight-update"
	case EdgeInsert:
		return "edge-insert"
	case EdgeDelete:
		return "edge-delete"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one churn event. WeightUpdate and EdgeDelete address an edge by
// ID; EdgeInsert names the endpoints. W carries the (new) weight for
// WeightUpdate and EdgeInsert.
type Event struct {
	Kind EventKind
	Edge int
	U, V int
	W    float64
}

// Maintained is a shortcut kept alive under churn: the graph, tree, part
// family and congestion cap it was built for, the frozen priority ranking
// (re-ranking parts mid-stream would force a global rebuild on every event,
// defeating local repair), and the current shortcut, a flood-built one
// whose flooding state is the current fixed point. All mutation goes
// through Repair, which updates the graph, the tree, and the admissions
// together.
type Maintained struct {
	G   *graph.Graph
	T   *graph.Tree
	P   *partition.Parts
	Cap int
	// Prio is the eviction ranking frozen at Maintain time. The repair
	// fixed point is always ConstructPrio's under this ranking, even after
	// tree patches shift the parts' true block counts — that drift is
	// exactly what the quality threshold watches.
	Prio []int32
	// RebuildFactor is the quality degradation threshold: a repair whose
	// measured quality exceeds RebuildFactor times the baseline recommends
	// a full rebuild (cap re-search) to the caller.
	RebuildFactor float64

	s           *Shortcut
	baseQuality int
	onRepair    []func(*RepairReport)
}

// OnRepair registers a listener invoked after every successful Repair (and
// after Reseat, with a nil report) — the invalidation hook consumers of
// the maintained shortcut subscribe to. The query-serving distance oracle
// uses it to flush cached distances when churn moves the network: any
// event may change distances (weights, connectivity) even when the
// shortcut's admissions are untouched. Listeners run synchronously, in
// registration order, on the goroutine that called Repair.
func (m *Maintained) OnRepair(fn func(*RepairReport)) {
	m.onRepair = append(m.onRepair, fn)
}

func (m *Maintained) notifyRepair(rep *RepairReport) {
	for _, fn := range m.onRepair {
		fn(rep)
	}
}

// RepairReport describes what one Repair call did.
type RepairReport struct {
	Event Event
	// DirtyVertices is the size of the dirty upward closure whose
	// admissions were recomputed (0 for events that cannot move the fixed
	// point).
	DirtyVertices int
	// RepairRounds is the modeled CONGEST cost of the repair: one round per
	// dirty vertex (the admissions re-flood climbs the dirty path one edge
	// per round) plus two rounds of detect/ack, and a single round for
	// fixed-point-preserving events.
	RepairRounds int
	// Changed reports whether any vertex's admitted set actually moved.
	Changed bool
	// TreePatched reports that a tree edge was deleted and the severed
	// subtree was re-rooted onto ReplacementEdge.
	TreePatched     bool
	ReplacementEdge int
	// Quality is the shortcut's measured quality after the event.
	Quality int
	// RebuildRecommended is set when Quality exceeds RebuildFactor times
	// the baseline quality captured at Maintain (or Reseat) time.
	RebuildRecommended bool
}

// Maintain wraps an initial flooding construction for incremental repair.
// The priority ranking is computed once (TreeBlockPriorities) and frozen;
// cap values below 1 clamp to 1 as everywhere else. A rebuildFactor at or
// below 1 selects the default threshold of 2 (quality doubled); a NaN one
// is an error, since no quality would ever exceed it.
func Maintain(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int, rebuildFactor float64) (*Maintained, error) {
	return MaintainPrio(g, t, p, cap, TreeBlockPriorities(t, p), rebuildFactor)
}

// MaintainPrio is Maintain under an explicit frozen ranking — the entry
// point for callers that already ran the cap search (congest.SearchCap
// computes and disseminates the ranking in-network).
func MaintainPrio(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap int, prio []int32, rebuildFactor float64) (*Maintained, error) {
	if err := checkFloodInput(g, t, p, prio); err != nil {
		return nil, err
	}
	if cap < 1 {
		cap = 1
	}
	if math.IsNaN(rebuildFactor) {
		return nil, fmt.Errorf("shortcut: rebuild factor %v", rebuildFactor)
	}
	if rebuildFactor <= 1 {
		rebuildFactor = 2
	}
	m := &Maintained{G: g, T: t, P: p, Cap: cap, Prio: prio, RebuildFactor: rebuildFactor}
	m.rebuild()
	return m, nil
}

// Shortcut returns the current shortcut (valid for the current tree). A
// repair replaces it and leaves the returned one as it was.
func (m *Maintained) Shortcut() *Shortcut { return m.s }

// Quality returns the current measured quality.
func (m *Maintained) Quality() int { return m.s.Measure().Quality }

// Reseat replaces the maintained state after a caller-driven full rebuild
// (e.g. a fresh cap search chose a new cap and ranking) and resets the
// baseline quality the rebuild threshold compares against.
func (m *Maintained) Reseat(cap int, prio []int32) error {
	if err := ValidPriorities(prio, m.P.NumParts()); err != nil {
		return err
	}
	if cap < 1 {
		cap = 1
	}
	m.Cap, m.Prio = cap, prio
	m.rebuild()
	m.notifyRepair(nil)
	return nil
}

// rebuild constructs the shortcut from scratch at m's cap and ranking and
// makes its quality the baseline.
func (m *Maintained) rebuild() {
	m.s = ConstructPrio(m.G, m.T, m.P, m.Cap, m.Prio)
	m.baseQuality = m.s.Measure().Quality
}

// Repair applies one churn event and restores the invariant that the
// maintained shortcut's flooding state is ConstructPrio's fixed point over
// the (possibly patched) tree under the frozen ranking.
// Fixed-point-preserving events (weight updates, inserts, non-tree
// deletes) mutate the graph and return in O(1); a tree-edge delete finds
// the lowest-ID replacement edge crossing the severed subtree's cut,
// re-roots the subtree at the replacement's inner endpoint, and recomputes
// admissions only over the dirty upward closure — the vertices whose child
// lists changed, plus their ancestors. The repaired state becomes a new
// shortcut; the previous one keeps its own state.
//
// A tree-edge delete with no replacement edge would disconnect the graph,
// and a NaN weight would reach the graph's MST; Repair returns an error for
// either before mutating anything, so the caller can skip the event and
// the maintained state stays consistent.
func (m *Maintained) Repair(ev Event) (*RepairReport, error) {
	rep := &RepairReport{Event: ev, ReplacementEdge: -1}
	switch ev.Kind {
	case WeightUpdate:
		if err := m.checkEdge(ev.Edge); err != nil {
			return nil, err
		}
		if math.IsNaN(ev.W) {
			return nil, fmt.Errorf("shortcut: repair weight update of edge %d to NaN", ev.Edge)
		}
		m.G.SetWeight(ev.Edge, ev.W)
		rep.RepairRounds = 1
	case EdgeInsert:
		n := m.G.N()
		if ev.U < 0 || ev.U >= n || ev.V < 0 || ev.V >= n || ev.U == ev.V {
			return nil, fmt.Errorf("shortcut: repair insert (%d,%d) outside vertex range [0,%d)", ev.U, ev.V, n)
		}
		if math.IsNaN(ev.W) {
			return nil, fmt.Errorf("shortcut: repair insert (%d,%d) with NaN weight", ev.U, ev.V)
		}
		m.G.AddEdge(ev.U, ev.V, ev.W)
		rep.RepairRounds = 1
	case EdgeDelete:
		if err := m.checkEdge(ev.Edge); err != nil {
			return nil, err
		}
		if !m.T.IsTreeEdge(ev.Edge) {
			m.G.RemoveEdge(ev.Edge)
			rep.RepairRounds = 1
			break
		}
		if err := m.repairTreeDelete(ev, rep); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("shortcut: repair: unknown event kind %v", ev.Kind)
	}
	rep.Quality = m.s.Measure().Quality
	rep.RebuildRecommended = float64(rep.Quality) > m.RebuildFactor*float64(m.baseQuality)
	m.notifyRepair(rep)
	return rep, nil
}

func (m *Maintained) checkEdge(id int) error {
	if id < 0 || id >= m.G.M() {
		return fmt.Errorf("shortcut: repair edge %d outside [0,%d)", id, m.G.M())
	}
	if m.G.EdgeRemoved(id) {
		return fmt.Errorf("shortcut: repair edge %d already removed", id)
	}
	return nil
}

// repairTreeDelete is the tree-patching path of Repair. All validation and
// the replacement search happen before the first mutation.
func (m *Maintained) repairTreeDelete(ev Event, rep *RepairReport) error {
	g, t := m.G, m.T
	e := g.Edge(ev.Edge)
	// The cut child is the endpoint whose parent edge is the deleted edge.
	c := e.U
	if t.ParentEdge[e.V] == ev.Edge {
		c = e.V
	}
	oldParent := t.Parent[c]

	// Mark the severed subtree.
	inSub := make([]bool, g.N())
	stack := []int{c}
	inSub[c] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range t.Children[v] {
			inSub[ch] = true
			stack = append(stack, ch)
		}
	}

	// Lowest-ID live edge crossing the cut, the deleted edge excluded.
	repl := -1
	for id := 0; id < g.M(); id++ {
		if id == ev.Edge || g.EdgeRemoved(id) {
			continue
		}
		f := g.Edge(id)
		if inSub[f.U] != inSub[f.V] {
			repl = id
			break
		}
	}
	if repl == -1 {
		return fmt.Errorf("shortcut: deleting tree edge %d disconnects the graph (no replacement edge crosses the cut)", ev.Edge)
	}
	f := g.Edge(repl)
	x, y := f.U, f.V // x inside the subtree, y outside
	if !inSub[x] {
		x, y = y, x
	}

	// Patch: remove the edge, re-root the subtree at x by reversing the
	// parent path x -> ... -> c, and hang x off y via the replacement edge.
	g.RemoveEdge(ev.Edge)
	parent := append([]int(nil), t.Parent...)
	parentEdge := append([]int(nil), t.ParentEdge...)
	path := []int{x}
	for v := x; v != c; v = t.Parent[v] {
		path = append(path, t.Parent[v])
	}
	for i := len(path) - 1; i > 0; i-- {
		parent[path[i]] = path[i-1]
		parentEdge[path[i]] = t.ParentEdge[path[i-1]]
	}
	parent[x], parentEdge[x] = y, repl
	newT, err := graph.TreeFromParents(g, t.Root, parent, parentEdge)
	if err != nil {
		return fmt.Errorf("shortcut: repatching tree after deleting edge %d: %w", ev.Edge, err)
	}

	// Dirty closure: every vertex whose child list changed (the reversed
	// path, the old attachment, the new attachment), closed upward under
	// the new tree — admission changes only propagate parentward.
	dirty := make([]bool, g.N())
	seed := func(v int) {
		for v != -1 && !dirty[v] {
			dirty[v] = true
			v = newT.Parent[v]
		}
	}
	for _, v := range path {
		seed(v)
	}
	seed(oldParent)
	seed(y)

	// Recompute admissions children-first over the dirty closure with
	// ConstructPrio's rule. Reverse new BFS order visits children before
	// parents. The next state shares the current one's lists: a dirty
	// vertex gets a fresh list and no list is edited in place, so cloning
	// the outer slice leaves the current shortcut's state intact.
	admitted := slices.Clone(m.s.FloodState())
	changed := false
	count := 0
	ps := presence{mark: make([]int32, m.P.NumParts())}
	for oi := g.N() - 1; oi >= 0; oi-- {
		v := newT.Order[oi]
		if !dirty[v] {
			continue
		}
		count++
		ps.gather(newT, m.P, m.Prio, admitted, v, int32(v+1))
		var next []int32
		if list := ps.admit(newT, v, m.Cap); len(list) > 0 {
			next = slices.Clone(list)
		}
		if !slices.Equal(admitted[v], next) {
			changed = true
		}
		admitted[v] = next
	}

	s, err := FromFloodState(g, newT, m.P, admitted, m.Prio)
	if err != nil {
		return fmt.Errorf("shortcut: reassembling maintained shortcut: %w", err)
	}
	m.T, m.s = newT, s
	rep.TreePatched = true
	rep.ReplacementEdge = repl
	rep.DirtyVertices = count
	rep.RepairRounds = count + 2
	rep.Changed = changed
	return nil
}
