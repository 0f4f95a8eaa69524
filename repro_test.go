package repro_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestGridNetworkFacade(t *testing.T) {
	nw, err := repro.GridNetwork(8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := nw.VoronoiParts(6)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := nw.BuildShortcut(parts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Measurement.Quality <= 0 {
		t.Fatal("no quality measured")
	}
	res, err := nw.MST()
	if err != nil {
		t.Fatal(err)
	}
	_, kW := graph.Kruskal(nw.G)
	if diff := res.Weight - kW; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("MST weight %v want %v", res.Weight, kW)
	}
}

func TestExcludedMinorNetworkFacade(t *testing.T) {
	nw, err := repro.ExcludedMinorNetwork(4, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if nw.CliqueSum == nil {
		t.Fatal("witness missing")
	}
	parts, err := nw.VoronoiParts(8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := nw.BuildShortcut(parts)
	if err != nil {
		t.Fatal(err)
	}
	if sc.S == nil {
		t.Fatal("no shortcut")
	}
}

func TestApexNetworkFacade(t *testing.T) {
	nw, err := repro.ApexNetwork(6, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := nw.Diameter(); d != 2 {
		t.Fatalf("apex network diameter %d want 2", d)
	}
	parts, err := nw.FragmentParts(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.BuildShortcut(parts); err != nil {
		t.Fatal(err)
	}
}

func TestKTreeNetworkFacadeAndMinCut(t *testing.T) {
	nw, err := repro.KTreeNetwork(60, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := nw.ApproxMinCut(0.2)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := nw.ExactMinCut()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Value < exact-1e-9 {
		t.Fatal("cut below exact minimum")
	}
}

func TestBaselinesProduceSameTree(t *testing.T) {
	nw, err := repro.PlanarNetwork(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.MST()
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.MSTBaseline()
	if err != nil {
		t.Fatal(err)
	}
	c, err := nw.MSTPipelined()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIDs) != len(b.EdgeIDs) || len(b.EdgeIDs) != len(c.EdgeIDs) {
		t.Fatal("algorithms disagree on MST size")
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] || b.EdgeIDs[i] != c.EdgeIDs[i] {
			t.Fatal("algorithms disagree on MST edges")
		}
	}
}

// TestZeroWitnessFacade: the three self-sufficient entry points run with
// no witness, tree, or cap input — leader election, BFS tree, cap search,
// and part priorities all happen in-network — and still meet their
// algorithmic guarantees, with the bootstrap rounds in the ledger matching
// the mode.
func TestZeroWitnessFacade(t *testing.T) {
	nw, err := repro.GridNetwork(6, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, kW := graph.Kruskal(nw.G)
	exactCut, _, err := nw.ExactMinCut()
	if err != nil {
		t.Fatal(err)
	}
	exactSP, err := nw.ExactSSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.25
	for _, simulate := range []bool{false, true} {
		mstRes, err := nw.MSTConstructed(simulate)
		if err != nil {
			t.Fatalf("MSTConstructed simulate=%v: %v", simulate, err)
		}
		if diff := mstRes.Weight - kW; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("simulate=%v: zero-witness MST weight %v want %v", simulate, mstRes.Weight, kW)
		}
		cut, err := nw.MinCutConstructed(eps, simulate)
		if err != nil {
			t.Fatalf("MinCutConstructed simulate=%v: %v", simulate, err)
		}
		if cut.Value < exactCut-1e-9 {
			t.Fatalf("simulate=%v: cut %v below exact minimum %v", simulate, cut.Value, exactCut)
		}
		if w := graph.CutWeight(nw.G, cut.Side); w-cut.Value > 1e-6 || cut.Value-w > 1e-6 {
			t.Fatalf("simulate=%v: reported %v but side cuts %v", simulate, cut.Value, w)
		}
		sp, err := nw.SSSPSelfSufficient(0, eps, simulate)
		if err != nil {
			t.Fatalf("SSSPSelfSufficient simulate=%v: %v", simulate, err)
		}
		for v := 1; v < nw.G.N(); v++ {
			if sp.Dist[v] < exactSP.Dist[v]-1e-9 || sp.Dist[v] > exactSP.Dist[v]*(1+eps)+1e-9 {
				t.Fatalf("simulate=%v vertex %d: %v vs exact %v outside [d, (1+eps)d]",
					simulate, v, sp.Dist[v], exactSP.Dist[v])
			}
		}
		// Ledger exclusivity end-to-end: the MST and SSSP paths book every
		// round in the mode's ledger (min-cut's 1-respecting convergecast
		// stays analytic by design, so only its simulated side is checked).
		if simulate {
			if mstRes.ChargedRounds != 0 || sp.ChargedRounds != 0 {
				t.Fatalf("simulate=true leaked charges: mst %d sssp %d", mstRes.ChargedRounds, sp.ChargedRounds)
			}
			if mstRes.CommRounds <= 0 || sp.CommRounds <= 0 || cut.CommRounds <= 0 {
				t.Fatal("simulate=true booked no measured rounds")
			}
		} else if mstRes.ChargedRounds <= 0 || sp.ChargedRounds <= 0 || cut.ChargedRounds <= 0 {
			t.Fatal("simulate=false booked no charged rounds")
		}
	}
}

func TestSSSPFacade(t *testing.T) {
	nw, err := repro.ExcludedMinorNetwork(3, 14, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := nw.VoronoiParts(6)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.1
	approx, err := nw.ApproxSSSP(0, parts, eps)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := nw.ExactSSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < nw.G.N(); v++ {
		if approx.Dist[v] < exact.Dist[v]-1e-9 || approx.Dist[v] > exact.Dist[v]*(1+eps)+1e-9 {
			t.Fatalf("vertex %d: approx %v vs exact %v outside [d, (1+eps)d]", v, approx.Dist[v], exact.Dist[v])
		}
	}
	if approx.ChargedRounds <= 0 || approx.Phases <= 0 {
		t.Fatalf("no rounds accounted: %+v", approx)
	}
}

// TestResilienceAndChurnFacade exercises the fault-injection and
// self-healing entry points end to end: a resilient in-network cap search
// under a connectivity-preserving fault plan must converge to the
// fault-free shortcut, and a maintained shortcut must absorb churn events
// with dirty-path repairs.
func TestResilienceAndChurnFacade(t *testing.T) {
	nw, err := repro.GridNetwork(6, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nw.VoronoiParts(6)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := nw.ConstructShortcut(p, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	adv := repro.NewAdversary(repro.FaultPlan{
		Seed:      5,
		DropProb:  0.15,
		DropUntil: 250,
		LinkDowns: []repro.LinkDown{{Edge: 2, From: 1, To: 20}},
		Crashes:   []repro.Crash{{Node: 7, Round: 3, Restart: 12}},
	})
	faulted, err := nw.ConstructShortcutResilient(p, 0, adv)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Cap != clean.Cap {
		t.Fatalf("resilient cap %d, fault-free %d", faulted.Cap, clean.Cap)
	}
	if fq, cq := faulted.S.Measure().Quality, clean.S.Measure().Quality; fq != cq {
		t.Fatalf("resilient quality %d, fault-free %d", fq, cq)
	}

	m, err := nw.MaintainShortcut(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Delete a tree edge: the repair must splice and stay consistent.
	id := m.T.ParentEdge[m.T.Order[len(m.T.Order)-1]]
	rep, err := m.Repair(repro.ChurnEvent{Kind: repro.EdgeDelete, Edge: id})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TreePatched || rep.RepairRounds < 2 {
		t.Fatalf("tree-edge delete not repaired: %+v", rep)
	}
	if _, err := m.Repair(repro.ChurnEvent{Kind: repro.WeightUpdate, Edge: m.T.ParentEdge[1], W: 3}); err != nil {
		t.Fatal(err)
	}
	if m.Quality() <= 0 {
		t.Fatalf("maintained quality %d after churn", m.Quality())
	}
}

// Out-of-range roots and sizes fail with an error from every facade
// constructor instead of panicking inside graph or gen.
func TestConstructorsRejectBadArguments(t *testing.T) {
	path := graph.New(3)
	path.AddEdge(0, 1, 1)
	path.AddEdge(1, 2, 1)
	for _, tc := range []struct {
		name  string
		build func() (*repro.Network, error)
	}{
		{"NewNetwork root -1", func() (*repro.Network, error) { return repro.NewNetwork(path, -1) }},
		{"NewNetwork root n+2", func() (*repro.Network, error) { return repro.NewNetwork(path, 5) }},
		{"GridNetwork 0x0", func() (*repro.Network, error) { return repro.GridNetwork(0, 0, 1) }},
		{"ApexNetwork 0x0", func() (*repro.Network, error) { return repro.ApexNetwork(0, 0, 1) }},
		{"PlanarNetwork 2", func() (*repro.Network, error) { return repro.PlanarNetwork(2, 1) }},
		{"ExcludedMinorNetwork no bags", func() (*repro.Network, error) { return repro.ExcludedMinorNetwork(0, 10, 1) }},
		{"ExcludedMinorNetwork bag size 2", func() (*repro.Network, error) { return repro.ExcludedMinorNetwork(2, 2, 1) }},
		{"KTreeNetwork n < k+1", func() (*repro.Network, error) { return repro.KTreeNetwork(3, 5, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if nw, err := tc.build(); err == nil {
				t.Fatalf("got network with %d vertices, want an error", nw.G.N())
			}
		})
	}
}

// TestBoruvkaEntryPointsRejectNegativePhases: every Borůvka entry point
// rejects a negative phase count, which used to come back as singleton
// parts as if no phase had run, and still accepts zero phases, which do
// leave every vertex its own fragment.
func TestBoruvkaEntryPointsRejectNegativePhases(t *testing.T) {
	nw, err := repro.GridNetwork(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(nw.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	decompose := func(simulate bool) func(int) (*repro.Parts, error) {
		return func(phases int) (*repro.Parts, error) {
			res, err := congest.BoruvkaDecompose(nw.G, tr, phases, simulate)
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		}
	}
	for _, tc := range []struct {
		name string
		run  func(phases int) (*repro.Parts, error)
	}{
		{"partition.BoruvkaTrace", func(phases int) (*repro.Parts, error) {
			_, p, err := partition.BoruvkaTrace(nw.G, phases)
			return p, err
		}},
		{"partition.BoruvkaFragments", func(phases int) (*repro.Parts, error) { return partition.BoruvkaFragments(nw.G, phases) }},
		{"congest.BoruvkaDecompose analytic", decompose(false)},
		{"congest.BoruvkaDecompose simulate", decompose(true)},
		{"Network.FragmentParts", nw.FragmentParts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if p, err := tc.run(-1); err == nil {
				t.Fatalf("phases = -1 returned %d parts, want an error", p.NumParts())
			}
			p, err := tc.run(0)
			if err != nil {
				t.Fatalf("phases = 0: %v", err)
			}
			if p.NumParts() != nw.G.N() {
				t.Fatalf("phases = 0 returned %d parts, want %d singletons", p.NumParts(), nw.G.N())
			}
		})
	}
}

// TestMalformedWeightsRejected: on a 4-cycle with one NaN edge every
// Borůvka-based entry point fails instead of returning Weight NaN, and a
// NaN or negative edge fails both min-cut approximations and the exact
// reference instead of returning a cut of value 0.
func TestMalformedWeightsRejected(t *testing.T) {
	cycle := func(w float64) *repro.Network {
		g := graph.New(4)
		for v := 0; v < 4; v++ {
			g.AddEdge(v, (v+1)%4, float64(v+1))
		}
		g.SetWeight(0, w)
		nw, err := repro.NewNetwork(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		w    float64
		run  func(*repro.Network) error
	}{
		{"MST NaN", nan, func(nw *repro.Network) error { _, err := nw.MST(); return err }},
		{"MSTBaseline NaN", nan, func(nw *repro.Network) error { _, err := nw.MSTBaseline(); return err }},
		{"MSTPipelined NaN", nan, func(nw *repro.Network) error { _, err := nw.MSTPipelined(); return err }},
		{"MSTConstructed analytic NaN", nan, func(nw *repro.Network) error { _, err := nw.MSTConstructed(false); return err }},
		{"MSTConstructed simulate NaN", nan, func(nw *repro.Network) error { _, err := nw.MSTConstructed(true); return err }},
		{"FragmentParts NaN", nan, func(nw *repro.Network) error { _, err := nw.FragmentParts(2); return err }},
		{"ApproxMinCut NaN", nan, func(nw *repro.Network) error { _, err := nw.ApproxMinCut(0.5); return err }},
		{"ApproxMinCut negative", -1, func(nw *repro.Network) error { _, err := nw.ApproxMinCut(0.5); return err }},
		{"MinCutConstructed NaN", nan, func(nw *repro.Network) error { _, err := nw.MinCutConstructed(0.5, false); return err }},
		{"MinCutConstructed negative", -1, func(nw *repro.Network) error { _, err := nw.MinCutConstructed(0.5, false); return err }},
		{"ExactMinCut NaN", nan, func(nw *repro.Network) error { _, _, err := nw.ExactMinCut(); return err }},
		{"ExactMinCut negative", -1, func(nw *repro.Network) error { _, _, err := nw.ExactMinCut(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(cycle(tc.w)); err == nil {
				t.Fatal("accepted the malformed weight")
			}
		})
	}
}

// TestMaintainShortcutRejectsNaNRebuildFactor: a NaN threshold used to be
// stored as is, and no quality ever exceeds it, so rebuild advice was off
// for good. Values at or below 1 still select the default of 2.
func TestMaintainShortcutRejectsNaNRebuildFactor(t *testing.T) {
	nw, err := repro.GridNetwork(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nw.VoronoiParts(4)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := nw.MaintainShortcut(p, 2, math.NaN()); err == nil {
		t.Fatalf("NaN rebuild factor accepted, stored as %v", m.RebuildFactor)
	}
	m, err := nw.MaintainShortcut(p, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.RebuildFactor != 2 {
		t.Fatalf("rebuild factor 1 stored as %v, want the default 2", m.RebuildFactor)
	}
}

// TestExactMinCutAfterChurnDelete: deleting a non-tree edge through a
// maintained shortcut removes it from the network's graph, and the exact
// min-cut oracle then reads that graph's tombstone. It must give the cut
// of the graph without the edge, not panic.
func TestExactMinCutAfterChurnDelete(t *testing.T) {
	nw, err := repro.GridNetwork(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nw.FragmentParts(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nw.MaintainShortcut(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for m.T.IsTreeEdge(id) {
		id++
	}
	rep, err := m.Repair(repro.ChurnEvent{Kind: repro.EdgeDelete, Edge: id})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TreePatched {
		t.Fatalf("edge %d is a non-tree edge, yet its delete patched the tree: %+v", id, rep)
	}
	w, side, err := nw.ExactMinCut()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := graph.New(nw.G.N())
	for e := 0; e < nw.G.M(); e++ {
		if !nw.G.EdgeRemoved(e) {
			f := nw.G.Edge(e)
			rebuilt.AddEdge(f.U, f.V, f.W)
		}
	}
	want, _, err := graph.GlobalMinCut(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if got := graph.CutWeight(nw.G, side); w != want || got != w {
		t.Fatalf("min cut %v (side %v weighs %v) after deleting edge %d; the rebuilt graph's is %v", w, side, got, id, want)
	}
}

// TestApproxMinCutAfterChurnDelete: after a maintained shortcut's Repair
// deletes a non-tree edge, the network's graph holds the edge's tombstone.
// Both tree-packing min cuts must skip it: each returns a cut within 1+ε of
// the exact minimum, whose side weighs what the cut reports over the live
// edges, rather than panicking.
func TestApproxMinCutAfterChurnDelete(t *testing.T) {
	nw, err := repro.GridNetwork(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := nw.FragmentParts(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nw.MaintainShortcut(p, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	for m.T.IsTreeEdge(id) {
		id++
	}
	if _, err := m.Repair(repro.ChurnEvent{Kind: repro.EdgeDelete, Edge: id}); err != nil {
		t.Fatal(err)
	}
	if !nw.G.EdgeRemoved(id) {
		t.Fatalf("edge %d is still in the network's graph after its delete", id)
	}
	exact, _, err := nw.ExactMinCut()
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	for _, run := range []struct {
		name string
		cut  func() (*repro.CutResult, error)
	}{
		{"ApproxMinCut", func() (*repro.CutResult, error) { return nw.ApproxMinCut(eps) }},
		{"MinCutConstructed", func() (*repro.CutResult, error) { return nw.MinCutConstructed(eps, false) }},
		{"MinCutConstructed simulated", func() (*repro.CutResult, error) { return nw.MinCutConstructed(eps, true) }},
	} {
		cut, err := run.cut()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if cut.Value < exact-1e-9 || cut.Value > (1+eps)*exact+1e-9 {
			t.Fatalf("%s: cut %v, exact minimum %v; want within a factor %v", run.name, cut.Value, exact, 1+eps)
		}
		if w := graph.CutWeight(nw.G, cut.Side); math.Abs(w-cut.Value) > 1e-9 {
			t.Fatalf("%s: reported %v but side %v cuts %v", run.name, cut.Value, cut.Side, w)
		}
	}
}

// TestMinCutWithInfiniteWeight: tree packing reweights every edge by its
// load, scaled past the largest weight so the load decides first. It
// scaled by the largest weight itself, so one +Inf weight made the scale
// +Inf and the first tree's zero loads NaN, and the packed MST failed on a
// NaN weight. Two chorded 4-cycles joined by a weight-1 bridge, one chord
// weighted +Inf: every min cut must find the bridge.
func TestMinCutWithInfiniteWeight(t *testing.T) {
	g := graph.New(8)
	for _, half := range []int{0, 4} {
		for v := 0; v < 4; v++ {
			g.AddEdge(half+v, half+(v+1)%4, float64(2+v))
		}
	}
	g.AddEdge(0, 2, math.Inf(1))
	g.AddEdge(5, 7, 3)
	g.AddEdge(3, 4, 1)
	nw, err := repro.NewNetwork(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := nw.ExactMinCut()
	if err != nil || exact != 1 {
		t.Fatalf("exact min cut %v, %v; want the bridge's 1", exact, err)
	}
	for _, run := range []struct {
		name string
		cut  func() (*repro.CutResult, error)
	}{
		{"ApproxMinCut", func() (*repro.CutResult, error) { return nw.ApproxMinCut(0.5) }},
		{"MinCutConstructed", func() (*repro.CutResult, error) { return nw.MinCutConstructed(0.5, false) }},
		{"MinCutConstructed simulated", func() (*repro.CutResult, error) { return nw.MinCutConstructed(0.5, true) }},
	} {
		cut, err := run.cut()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if cut.Value != 1 || graph.CutWeight(g, cut.Side) != 1 {
			t.Fatalf("%s: cut %v with side %v; want the bridge's 1", run.name, cut.Value, cut.Side)
		}
	}
}
