package experiments

import (
	"strconv"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
)

// TestE18ChurnAcceptance pins the self-healing acceptance shape: on every
// family the dirty-path repair strategy spends strictly fewer modeled
// rounds than the per-event rebuild strawman, and the maintained shortcut's
// final quality stays within a constant factor of a fresh full cap
// re-search on the churned graph.
func TestE18ChurnAcceptance(t *testing.T) {
	tab := E18Churn([]int{6, 10}, []int{32}, []int{2}, 30, 2018)
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(tab.Rows))
	}
	col := func(name string) int {
		for ci, h := range tab.Header {
			if h == name {
				return ci
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	fam, events := col("family"), col("events")
	rRepair, rRebuild := col("r_repair"), col("r_rebuild")
	qRatio := col("q_ratio")
	seen := map[string]bool{}
	for ri, row := range tab.Rows {
		seen[row[fam]] = true
		ev, err := strconv.Atoi(row[events])
		if err != nil || ev < 1 {
			t.Fatalf("row %d: events %q not positive", ri, row[events])
		}
		rep, err := strconv.Atoi(row[rRepair])
		if err != nil {
			t.Fatalf("row %d: r_repair %q not numeric", ri, row[rRepair])
		}
		reb, err := strconv.Atoi(row[rRebuild])
		if err != nil {
			t.Fatalf("row %d: r_rebuild %q not numeric", ri, row[rRebuild])
		}
		if rep >= reb {
			t.Fatalf("row %d (%s): repair rounds %d not strictly below rebuild rounds %d",
				ri, row[fam], rep, reb)
		}
		q, err := strconv.ParseFloat(row[qRatio], 64)
		if err != nil {
			t.Fatalf("row %d: q_ratio %q not numeric", ri, row[qRatio])
		}
		const maxQRatio = 3.0
		if q > maxQRatio {
			t.Fatalf("row %d (%s): churned quality %.2fx the fresh re-search exceeds %v",
				ri, row[fam], q, maxQRatio)
		}
	}
	for _, f := range []string{"grid", "wheel", "k5free"} {
		if !seen[f] {
			t.Fatalf("family %s missing from the table", f)
		}
	}
}

// TestE18FaultedPipelineFixedPoint is the tentpole's convergence
// acceptance: under a seeded fault plan that leaves the graph connected
// (finite link-downs, crash/restart windows, Bernoulli drops with a
// horizon), the retrying pipeline — resilient election, resilient BFS, cap
// search with every sub-protocol under the adversary — converges to the
// identical leader, tree, cap, and shortcut as the fault-free run, on all
// three E14 families.
func TestE18FaultedPipelineFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted pipeline sweep skipped in -short mode")
	}
	type instance struct {
		family string
		g      *graph.Graph
		p      *partition.Parts
	}
	var cases []instance
	{
		e := gen.Grid(6, 6)
		p, err := partition.GridRows(e.G, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"grid", e.G, p})
	}
	{
		rng := pointRNG(18, 1)
		a := gen.CycleWithApex(32, rng)
		p, err := partition.RimArcs(a.G, 8)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"wheel", a.G, p})
	}
	{
		rng := pointRNG(18, 2)
		pieces := []*gen.Piece{gen.ApollonianPiece(18, rng), gen.ApollonianPiece(20, rng)}
		cs := gen.CliqueSum(pieces, 3, rng)
		p, err := partition.Voronoi(cs.G, 6, rng)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{"k5free", cs.G, p})
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			// Fault-free reference.
			setup, err := pipeline.SelfSetup(tc.g, true)
			if err != nil {
				t.Fatal(err)
			}
			search, err := congest.SearchCap(tc.g, setup.Tree, tc.p, congest.SearchOptions{Simulate: true})
			if err != nil {
				t.Fatal(err)
			}
			// Faulted run: drops with a horizon, a link outage, one
			// crash/restart (state preserved) and one wiping restart.
			plan := congest.FaultPlan{
				Seed:      0xE18,
				DropProb:  0.10,
				DropUntil: 300,
				LinkDowns: []congest.LinkDown{
					{Edge: 0, From: 1, To: 40},
					{Edge: tc.g.M() / 2, From: 5, To: 25},
				},
				Crashes: []congest.Crash{
					{Node: tc.g.N() / 2, Round: 3, Restart: 20},
					{Node: tc.g.N() - 1, Round: 10, Restart: 30, Wipe: true},
				},
			}
			adv := congest.NewAdversary(plan)
			fsetup, err := pipeline.SelfSetupUnder(tc.g, true, adv)
			if err != nil {
				t.Fatal(err)
			}
			fsearch, err := congest.SearchCap(tc.g, fsetup.Tree, tc.p, congest.SearchOptions{Simulate: true, Adversary: adv})
			if err != nil {
				t.Fatal(err)
			}
			if fsetup.Leader != setup.Leader {
				t.Fatalf("faulted leader %d, fault-free %d", fsetup.Leader, setup.Leader)
			}
			for v := range setup.Tree.Parent {
				if fsetup.Tree.Parent[v] != setup.Tree.Parent[v] ||
					fsetup.Tree.ParentEdge[v] != setup.Tree.ParentEdge[v] {
					t.Fatalf("vertex %d: faulted tree (%d,%d), fault-free (%d,%d)", v,
						fsetup.Tree.Parent[v], fsetup.Tree.ParentEdge[v],
						setup.Tree.Parent[v], setup.Tree.ParentEdge[v])
				}
			}
			if fsearch.Cap != search.Cap {
				t.Fatalf("faulted cap %d, fault-free %d", fsearch.Cap, search.Cap)
			}
			for i := range search.S.Edges() {
				if len(fsearch.S.Edges()[i]) != len(search.S.Edges()[i]) {
					t.Fatalf("part %d: faulted shortcut %v, fault-free %v",
						i, fsearch.S.Edges()[i], search.S.Edges()[i])
				}
				for j := range search.S.Edges()[i] {
					if fsearch.S.Edges()[i][j] != search.S.Edges()[i][j] {
						t.Fatalf("part %d: faulted shortcut %v, fault-free %v",
							i, fsearch.S.Edges()[i], search.S.Edges()[i])
					}
				}
			}
			// The adversary's timeline keeps advancing across the pipeline,
			// so the fault horizon may be spent by the time the search runs
			// — but the bootstrap must have absorbed real faults.
			pipe := fsetup.Stats
			pipe.Add(fsearch.Stats)
			dropped := pipe.Dropped + pipe.DownDrops + pipe.CrashDrops
			if dropped == 0 {
				t.Fatal("adversary injected no faults into the pipeline — the test is vacuous")
			}
		})
	}
}
