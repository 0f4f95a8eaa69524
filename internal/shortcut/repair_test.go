package shortcut_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// checkOracle verifies the maintained state against a full rebuild: the
// maintained shortcut's flooding state must equal ConstructPrio's over the
// current (possibly patched) tree under the frozen ranking, its edge lists
// must equal that construction's, and the measurement it carries must
// equal the union-find measurement of its edges.
func checkOracle(t *testing.T, m *shortcut.Maintained) {
	t.Helper()
	ws := shortcut.ConstructPrio(m.G, m.T, m.P, m.Cap, m.Prio)
	gs := m.Shortcut()
	want, got := ws.FloodState(), gs.FloodState()
	for v := range want {
		if !slices.Equal(got[v], want[v]) {
			t.Fatalf("vertex %d: admitted %v, oracle %v", v, got[v], want[v])
		}
	}
	for i := range ws.Edges() {
		if !slices.Equal(gs.Edges()[i], ws.Edges()[i]) {
			t.Fatalf("part %d: shortcut edges %v, oracle %v", i, gs.Edges()[i], ws.Edges()[i])
		}
	}
	if got, want := gs.Measure(), unionFindMeasure(t, gs); !sameMeasurement(got, want) {
		t.Fatalf("maintained measurement %+v, union-find %+v", got, want)
	}
}

func TestRepairMatchesFixedPointOracle(t *testing.T) {
	g, tr, p := gridParts(t, 8, 8)
	m, err := shortcut.Maintain(g, tr, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, m)
	rng := rand.New(rand.NewSource(18))
	deletes, patches := 0, 0
	for step := 0; step < 200; step++ {
		var ev shortcut.Event
		switch rng.Intn(4) {
		case 0: // weight update on a random live edge
			id := rng.Intn(g.M())
			if g.EdgeRemoved(id) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.WeightUpdate, Edge: id, W: rng.Float64()}
		case 1: // insert a fresh edge
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v || g.HasEdge(u, v) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.EdgeInsert, U: u, V: v, W: rng.Float64()}
		default: // delete a random live edge
			id := rng.Intn(g.M())
			if g.EdgeRemoved(id) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id}
		}
		rep, err := m.Repair(ev)
		if err != nil {
			// The only lawful failure is a disconnecting tree-edge delete,
			// refused before any mutation.
			if ev.Kind != shortcut.EdgeDelete {
				t.Fatalf("step %d: %v", step, err)
			}
			if g.EdgeRemoved(ev.Edge) {
				t.Fatalf("step %d: refused delete still removed edge %d", step, ev.Edge)
			}
			continue
		}
		if ev.Kind == shortcut.EdgeDelete {
			deletes++
			if !g.EdgeRemoved(ev.Edge) {
				t.Fatalf("step %d: delete left edge %d live", step, ev.Edge)
			}
			if rep.TreePatched {
				patches++
				if rep.ReplacementEdge < 0 || g.EdgeRemoved(rep.ReplacementEdge) {
					t.Fatalf("step %d: bad replacement edge %d", step, rep.ReplacementEdge)
				}
				if !m.T.IsTreeEdge(rep.ReplacementEdge) {
					t.Fatalf("step %d: replacement edge %d not in patched tree", step, rep.ReplacementEdge)
				}
				if rep.RepairRounds != rep.DirtyVertices+2 {
					t.Fatalf("step %d: repair rounds %d for %d dirty vertices", step, rep.RepairRounds, rep.DirtyVertices)
				}
				if rep.DirtyVertices >= g.N() {
					t.Fatalf("step %d: dirty closure %d not smaller than n=%d", step, rep.DirtyVertices, g.N())
				}
			}
		}
		checkOracle(t, m)
	}
	if deletes == 0 || patches == 0 {
		t.Fatalf("churn sequence exercised %d deletes, %d tree patches; want both > 0", deletes, patches)
	}
}

func TestRepairTreeDeleteReroots(t *testing.T) {
	// 4-cycle: tree is 0-1, 0-3, 1-2. Deleting tree edge 1-2 must re-root
	// {2} onto the replacement edge 2-3.
	g := gen.Cycle(4)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := shortcut.Maintain(g, tr, p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := tr.ParentEdge[2]
	rep, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TreePatched {
		t.Fatalf("tree-edge delete did not patch the tree: %+v", rep)
	}
	if m.T.Parent[2] != 3 {
		t.Fatalf("vertex 2 re-rooted onto %d, want 3", m.T.Parent[2])
	}
	if got := g.Edge(rep.ReplacementEdge); !(got.U == 2 && got.V == 3 || got.U == 3 && got.V == 2) {
		t.Fatalf("replacement edge %d joins %v, want {2,3}", rep.ReplacementEdge, got)
	}
	checkOracle(t, m)
}

func TestRepairRefusesDisconnect(t *testing.T) {
	// A tree has no replacement for any of its edges.
	g := gen.Path(5)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(g, [][]int{{0, 1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := shortcut.Maintain(g, tr, p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Quality()
	if _, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: tr.ParentEdge[3]}); err == nil {
		t.Fatal("disconnecting delete accepted")
	}
	if g.EdgeRemoved(tr.ParentEdge[3]) {
		t.Fatal("refused delete mutated the graph")
	}
	if m.Quality() != before {
		t.Fatal("refused delete mutated the maintained shortcut")
	}
	checkOracle(t, m)
}

func TestRepairRebuildThreshold(t *testing.T) {
	g, tr, p := gridParts(t, 4, 4)
	m, err := shortcut.Maintain(g, tr, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.RebuildFactor != 2 {
		t.Fatalf("default rebuild factor %v, want 2", m.RebuildFactor)
	}
	// Quality is unchanged by a weight update, so the recommendation is a
	// pure function of the threshold.
	base := m.Quality()
	m.RebuildFactor = 0.5
	rep, err := m.Repair(shortcut.Event{Kind: shortcut.WeightUpdate, Edge: 0, W: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RebuildRecommended {
		t.Fatalf("quality %d vs base %d under factor 0.5: rebuild not recommended", rep.Quality, base)
	}
	m.RebuildFactor = 10
	rep, err = m.Repair(shortcut.Event{Kind: shortcut.WeightUpdate, Edge: 0, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RebuildRecommended {
		t.Fatalf("quality %d vs base %d under factor 10: spurious rebuild recommendation", rep.Quality, base)
	}
	// Reseat resets the baseline: after a reseat at cap 3, whose quality is
	// above the cap-2 baseline, factor 1 recommends nothing.
	if err := m.Reseat(3, identityRanking(m.P.NumParts())); err != nil {
		t.Fatal(err)
	}
	if m.Quality() <= base {
		t.Fatalf("cap-3 quality %d not above the cap-2 baseline %d, so the check below is vacuous", m.Quality(), base)
	}
	m.RebuildFactor = 1
	rep, err = m.Repair(shortcut.Event{Kind: shortcut.WeightUpdate, Edge: 0, W: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RebuildRecommended {
		t.Fatalf("quality %d at factor 1 right after a reseat: rebuild recommended against a stale baseline", rep.Quality)
	}
	checkOracle(t, m)
}

func TestRepairRejectsBadEvents(t *testing.T) {
	g, tr, p := gridParts(t, 3, 3)
	m, err := shortcut.Maintain(g, tr, p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := []shortcut.Event{
		{Kind: shortcut.WeightUpdate, Edge: -1},
		{Kind: shortcut.WeightUpdate, Edge: g.M()},
		{Kind: shortcut.EdgeDelete, Edge: g.M() + 3},
		{Kind: shortcut.EdgeInsert, U: 0, V: 0},
		{Kind: shortcut.EdgeInsert, U: -1, V: 2},
		{Kind: shortcut.EdgeInsert, U: 0, V: g.N()},
		{Kind: shortcut.EventKind(99), Edge: 0},
	}
	for _, ev := range bad {
		if _, err := m.Repair(ev); err == nil {
			t.Errorf("event %+v accepted", ev)
		}
	}
	// Double delete: first succeeds, second is refused.
	nonTree := -1
	for id := 0; id < g.M(); id++ {
		if !tr.IsTreeEdge(id) {
			nonTree = id
			break
		}
	}
	if _, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: nonTree}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: nonTree}); err == nil {
		t.Error("double delete accepted")
	}
	if _, err := m.Repair(shortcut.Event{Kind: shortcut.WeightUpdate, Edge: nonTree, W: 1}); err == nil {
		t.Error("weight update on removed edge accepted")
	}
	checkOracle(t, m)
}

// OnRepair listeners — the invalidation hook the query-serving distance
// oracle subscribes to — must fire once per successful Repair (with the
// report) and once per Reseat (with nil), in registration order, and must
// not fire for refused events.
func TestOnRepairListeners(t *testing.T) {
	g, tr, p := gridParts(t, 6, 6)
	m, err := shortcut.Maintain(g, tr, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	var reports []*shortcut.RepairReport
	m.OnRepair(func(rep *shortcut.RepairReport) { order = append(order, 1); reports = append(reports, rep) })
	m.OnRepair(func(rep *shortcut.RepairReport) { order = append(order, 2) })
	rep, err := m.Repair(shortcut.Event{Kind: shortcut.WeightUpdate, Edge: 0, W: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0] != rep {
		t.Fatalf("listener saw %d reports, want exactly the returned one", len(reports))
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("listener order %v, want [1 2]", order)
	}
	if _, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: g.M() + 7}); err == nil {
		t.Fatal("bad event accepted")
	}
	if len(reports) != 1 {
		t.Error("listener fired for a refused event")
	}
	if err := m.Reseat(m.Cap, m.Prio); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[1] != nil {
		t.Fatalf("Reseat notification missing or non-nil: %d reports", len(reports))
	}
}

// TestRepairRejectsNaNWeights: a weight update or an insert carrying a NaN
// weight is refused before it mutates anything, rather than written into
// the graph for a later MST to trip over.
func TestRepairRejectsNaNWeights(t *testing.T) {
	g, tr, p := gridParts(t, 3, 3)
	m, err := shortcut.Maintain(g, tr, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	edges, w, quality := g.M(), g.Edge(0).W, m.Quality()
	for _, ev := range []shortcut.Event{
		{Kind: shortcut.WeightUpdate, Edge: 0, W: math.NaN()},
		{Kind: shortcut.EdgeInsert, U: 0, V: 8, W: math.NaN()},
	} {
		if _, err := m.Repair(ev); err == nil {
			t.Errorf("%v event with a NaN weight accepted", ev.Kind)
		}
	}
	if g.M() != edges || g.Edge(0).W != w || m.Quality() != quality {
		t.Fatalf("refused events left %d edges, edge 0 weight %v, quality %d; want %d, %v, %d",
			g.M(), g.Edge(0).W, m.Quality(), edges, w, quality)
	}
	checkOracle(t, m)
}

// TestRepairLeavesEarlierShortcutIntact: a shortcut owns the flooding state
// it was built from. A repair that moves the maintained state builds a new
// shortcut and leaves the one Shortcut returned before it as it was: its
// first Edges call, made after the repair, and its Measure equal those of a
// ConstructPrio over the tree, cap and ranking it was built for.
func TestRepairLeavesEarlierShortcutIntact(t *testing.T) {
	g, tr, p := gridParts(t, 8, 8)
	m, err := shortcut.Maintain(g, tr, p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s0 := m.Shortcut()
	ref := shortcut.ConstructPrio(g, tr, p, m.Cap, m.Prio)
	wantEdges, wantM := cloneEdges(ref.Edges()), ref.Measure()
	changed := false
	for id := 0; id < g.M() && !changed; id++ {
		if g.EdgeRemoved(id) || !m.T.IsTreeEdge(id) {
			continue
		}
		if rep, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id}); err == nil {
			changed = rep.Changed
		}
	}
	if !changed {
		t.Fatal("no tree-edge delete changed the maintained state")
	}
	checkOracle(t, m)
	if shortcut.Filled(s0) {
		t.Fatal("the earlier shortcut's lists were filled before its first Edges call")
	}
	if got := s0.Edges(); !slices.EqualFunc(got, wantEdges, slices.Equal[[]int]) {
		t.Fatalf("earlier shortcut's lists after the repair %v, want %v", got, wantEdges)
	}
	if got := s0.Measure(); !sameMeasurement(got, wantM) {
		t.Fatalf("earlier shortcut's measurement after the repair %+v, want %+v", got, wantM)
	}
}
