package experiments

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// E13Construct measures the distributed in-network shortcut construction
// (congest.ConstructShortcut): the network builds its own tree-restricted
// shortcuts by part-wise flooding with a congestion cap instead of being
// handed a witness-derived assignment — the construction step the framework
// actually requires a network to run. Three families, three central
// baselines:
//
//   - grids with row parts vs the cotree treewidth witness (E1's setup),
//   - wheels (cycle + apex) with rim-arc parts vs the apex-aware
//     almost-embeddable witness (E11's setup), and
//   - K5-minor-free clique-sum chains with Voronoi parts vs the Theorem 6
//     excluded-minor witness (E5's setup, the acceptance family).
//
// Per row the congestion cap is chosen by the analytic auto-search
// (shortcut.ConstructAuto), then the construction runs once in each ledger:
// r_sim is the simulated protocol's measured effective rounds, r_chg the
// analytic-mode framework charge (congest.ConstructBudget). use_dist /
// use_wit are the part-wise aggregation rounds each shortcut then buys, so
// r_sim + use_dist prices the full in-network pipeline against a witness
// construction whose rounds were never paid.
func E13Construct(gridSides, wheelRims, chainBags []int, seed int64) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "distributed in-network shortcut construction: flooding vs witness quality and rounds",
		Header: []string{"family", "n", "diam", "parts", "cap", "q_dist", "q_wit", "ratio", "r_sim", "r_chg", "use_dist", "use_wit"},
	}
	rows := forEachFamily(gridSides, wheelRims, chainBags, seed, func(f familyPoint) row {
		tr, wit := f.witness()
		return constructRow(f.family, f.g, tr, f.p, wit)
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"q_dist: flooding-constructed quality at the auto-chosen cap; q_wit: the witness construction the generator knows",
		"r_sim: measured construction rounds (CONGEST protocol); r_chg: the analytic-ledger charge for one construction",
		"use_dist/use_wit: part-wise aggregation rounds over each shortcut (the construction's downstream payoff)")
	return t
}

// constructRow runs the in-network construction in both ledgers plus an
// aggregation usage over both shortcuts, and formats one table cell row.
func constructRow(family string, g *graph.Graph, tr *graph.Tree, p *partition.Parts, wit *shortcut.Shortcut) row {
	auto, err := shortcut.ConstructAuto(g, tr, p)
	if err != nil {
		panic(err)
	}
	mAuto, cap := auto.M, auto.Cap
	sim, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: cap, Simulate: true})
	if err != nil {
		panic(err)
	}
	// The analytic ledger's charge is closed-form; no need to rebuild the
	// fixed point a third time.
	charged := congest.ConstructBudget(tr, cap)
	if q := sim.S.Measure().Quality; q != mAuto.Quality {
		panic(fmt.Sprintf("E13: simulated construction quality %d != fixed point %d", q, mAuto.Quality))
	}
	keys := make([]uint64, g.N())
	for v := range keys {
		keys[v] = uint64((v*7919)%100000 + 1)
	}
	useDist, err := aggregate(g, p, sim.S, keys)
	if err != nil {
		panic(err)
	}
	useWit, err := aggregate(g, p, wit, keys)
	if err != nil {
		panic(err)
	}
	witM := wit.Measure()
	return row{family, g.N(), graph.DiameterApprox(g), p.NumParts(), cap,
		mAuto.Quality, witM.Quality,
		float64(mAuto.Quality) / float64(witM.Quality),
		sim.EffectiveRounds, charged, useDist, useWit}
}
