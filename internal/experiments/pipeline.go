package experiments

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
)

// E14Pipeline measures the zero-witness pipeline end to end: the network
// elects a leader, builds its own BFS tree (congest.LeaderElectSync, then
// the early-exit congest.DistributedBFSSync), ranks parts by tree block
// counts, runs the in-network O(log n) doubling cap search
// (congest.SearchCap) — one flooding construction at the part count, read
// at every guess's cap, and a convergecast quality estimate per guess —
// and keeps the winning shortcut. No witness,
// tree, or cap is supplied by the generator anywhere on that path.
//
// The same three families as E13, against the same witness baselines:
// grids with row parts (cotree treewidth witness), wheels with rim-arc
// parts (apex-aware almost-embeddable witness), and K5-minor-free
// clique-sum chains with Voronoi parts (Theorem 6 witness). q_zero is the
// exactly measured quality of the zero-witness shortcut, q_wit the witness
// construction's; the acceptance bar is q_zero within 2× of q_wit on every
// family. r_boot and r_search are the measured bootstrap (election plus
// early-exit BFS) and cap-search rounds (simulate ledger), r_chg the
// analytic-ledger total for the same pipeline, and use_zero/use_wit the
// part-wise aggregation rounds each shortcut then buys.
func E14Pipeline(gridSides, wheelRims, chainBags []int, seed int64) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "zero-witness pipeline: elect + BFS + cap search vs witness constructions",
		Header: []string{"family", "n", "diam", "parts", "cap", "q_zero", "q_wit", "ratio", "r_boot", "r_search", "r_chg", "use_zero", "use_wit"},
	}
	rows := forEachFamily(gridSides, wheelRims, chainBags, seed, func(f familyPoint) row {
		_, wit := f.witness()
		return pipelineRow(f.family, f.g, f.p, wit)
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"q_zero: quality of the shortcut the network built with zero generator input (elected tree, in-network cap search, block priorities)",
		"q_wit: the witness construction the generator knows (whose construction rounds were never paid)",
		"r_boot/r_search: measured bootstrap and cap-search rounds; r_chg: the analytic-ledger charge for the same pipeline",
		"use_zero/use_wit: part-wise aggregation rounds over each shortcut (the downstream payoff)")
	return t
}

// pipelineRow runs the zero-witness pipeline once (simulate mode, which
// also reports the closed-form analytic charge) plus an aggregation usage
// over both shortcuts, and formats one table row.
func pipelineRow(family string, g *graph.Graph, p *partition.Parts, wit *shortcut.Shortcut) row {
	setup, err := pipeline.SelfSetup(g, true)
	if err != nil {
		panic(err)
	}
	search, err := congest.SearchCap(g, setup.Tree, p, congest.SearchOptions{Simulate: true})
	if err != nil {
		panic(err)
	}
	keys := make([]uint64, g.N())
	for v := range keys {
		keys[v] = uint64((v*7919)%100000 + 1)
	}
	useZero, err := aggregate(g, p, search.S, keys)
	if err != nil {
		panic(err)
	}
	useWit, err := aggregate(g, p, wit, keys)
	if err != nil {
		panic(err)
	}
	qZero := search.S.Measure().Quality
	qWit := wit.Measure().Quality
	// r_chg: what the identical pipeline charges on the analytic ledger —
	// a closed form both modes report, so no second run is needed (the
	// mode-agreement tests pin that the analytic run matches it exactly).
	return row{family, g.N(), graph.DiameterApprox(g), p.NumParts(), search.Cap,
		qZero, qWit, float64(qZero) / float64(qWit),
		setup.Cost.Simulated, search.EffectiveRounds,
		setup.ChargedEquivalent + search.ChargedEquivalent,
		useZero, useWit}
}
