package experiments

import (
	"math"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

// E18Churn measures self-healing shortcuts under churn: the zero-witness
// pipeline (analytic mode) picks a cap and ranking, shortcut.Maintain wraps
// the construction, and a Poisson edge-churn stream — weight updates,
// inserts, deletes, including tree-edge deletes that force a splice-and-
// re-root patch — is applied through shortcut.Repair. Repair recomputes
// admissions only along the dirty upward closure; a full flooding rebuild
// is triggered only when the measured quality degrades past the maintained
// threshold (RebuildFactor, default 2x).
//
// r_repair is the repair strategy's total modeled rounds (per-event dirty-
// path repairs plus any threshold-triggered rebuilds at ConstructBudget
// each); r_rebuild is the strawman that re-floods after every event. The
// acceptance bar is r_repair strictly below r_rebuild on every family,
// with q_end within 2x of q_oracle — a fresh full cap re-search
// (shortcut.ConstructAuto) on the churned graph.
//
// Same three families as E13/E14/E15: grids with row parts, wheels with
// rim-arc parts, K5-minor-free clique-sum chains with Voronoi parts.
func E18Churn(gridSides, wheelRims, chainBags []int, steps int, seed int64) *Table {
	t := &Table{
		ID:     "E18",
		Title:  "self-healing shortcuts under churn: dirty-path repair vs per-event rebuild",
		Header: []string{"family", "n", "events", "upd", "ins", "del", "patches", "rebuilds", "r_repair", "r_rebuild", "ratio", "q_end", "q_oracle", "q_ratio"},
	}
	rows := forEachFamily(gridSides, wheelRims, chainBags, seed, func(f familyPoint) row {
		return churnRow(f.family, f.g, f.p, steps, f.rng)
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"events ~ Poisson(1.5) per step: 1/4 weight updates, 1/4 inserts, 1/2 deletes (disconnecting tree-edge deletes are refused by Repair and skipped)",
		"patches: tree-edge deletes repaired by splice-and-re-root; rebuilds: threshold-triggered full re-floods (charged to r_repair)",
		"r_repair: dirty-path repair rounds + rebuild charges; r_rebuild: the strawman that re-floods (ConstructBudget) after every event",
		"q_oracle: fresh full cap re-search (shortcut.ConstructAuto) on the churned graph; q_ratio = q_end / q_oracle")
	return t
}

// churnRow bootstraps the maintained shortcut through the analytic
// zero-witness pipeline, drives one Poisson churn stream through Repair,
// and formats one table row.
func churnRow(family string, g *graph.Graph, p *partition.Parts, steps int, rng *rand.Rand) row {
	setup, err := pipeline.SelfSetup(g, false)
	if err != nil {
		panic(err)
	}
	search, err := congest.SearchCap(g, setup.Tree, p, congest.SearchOptions{})
	if err != nil {
		panic(err)
	}
	m, err := shortcut.MaintainPrio(g, setup.Tree, p, search.Cap, search.Priorities, 0)
	if err != nil {
		panic(err)
	}
	var events, upd, ins, del, patches, rebuilds, rRepair, rRebuild int
	for step := 0; step < steps; step++ {
		for k := poisson(rng, 1.5); k > 0; k-- {
			var ev shortcut.Event
			switch draw := rng.Intn(4); {
			case draw == 0:
				id := rng.Intn(g.M())
				if g.EdgeRemoved(id) {
					continue
				}
				ev = shortcut.Event{Kind: shortcut.WeightUpdate, Edge: id, W: 1 + rng.Float64()}
			case draw == 1:
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v || g.HasEdge(u, v) {
					continue
				}
				ev = shortcut.Event{Kind: shortcut.EdgeInsert, U: u, V: v, W: 1 + rng.Float64()}
			default:
				id := rng.Intn(g.M())
				if g.EdgeRemoved(id) {
					continue
				}
				ev = shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id}
			}
			rep, err := m.Repair(ev)
			if err != nil {
				continue // disconnecting tree-edge delete: refused, skipped
			}
			events++
			switch ev.Kind {
			case shortcut.WeightUpdate:
				upd++
			case shortcut.EdgeInsert:
				ins++
			case shortcut.EdgeDelete:
				del++
			}
			if rep.TreePatched {
				patches++
			}
			rRepair += rep.RepairRounds
			rRebuild += congest.ConstructBudget(m.T, m.Cap)
			if rep.RebuildRecommended {
				rebuilds++
				rRepair += congest.ConstructBudget(m.T, m.Cap)
				if err := m.Reseat(m.Cap, shortcut.TreeBlockPriorities(m.T, m.P)); err != nil {
					panic(err)
				}
			}
		}
	}
	auto, err := shortcut.ConstructAuto(g, m.T, p)
	if err != nil {
		panic(err)
	}
	qEnd := m.Quality()
	qOracle := auto.M.Quality
	return row{family, g.N(), events, upd, ins, del, patches, rebuilds,
		rRepair, rRebuild, float64(rRepair) / float64(rRebuild),
		qEnd, qOracle, float64(qEnd) / float64(qOracle)}
}

// poisson draws from Poisson(lambda) by Knuth's product-of-uniforms method
// (lambda is small here, so the loop is short).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, prod := 0, rng.Float64()
	for prod > l {
		k++
		prod *= rng.Float64()
	}
	return k
}
