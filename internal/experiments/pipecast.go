package experiments

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
)

// E15Pipecast measures the pipelined multi-token tree communication layer
// against sequential repetition: streaming the k per-part block-count
// tokens to the root in one pipelined convergecast (congest.Pipecast,
// O(height + k) rounds, one token per tree edge per round) versus running
// k single-token convergecasts back to back (k · O(height) — what the
// framework would pay without pipelining). The payload is the priority
// bootstrap's own workload: every part member decides locally whether it
// tops a tree block, and the per-part sums travel to the root.
//
// The same three families as E13/E14 — grids with row parts, wheels with
// rim-arc parts, K5-minor-free clique-sum chains with Voronoi parts — each
// over the tree the network elects for itself (pipeline.SelfSetup).
// r_pipe must stay within the height + k + 1 pipelining bound and beat
// r_seq on every row; chg_pipe/chg_seq report the analytic ledger for the
// same two strategies. The cap columns validate the layer's integration:
// with the bootstrap and per-guess block-count sums now running
// message-level, simulate-mode SearchCap (cap_sim, with r_boot measured
// bootstrap rounds) must still select the same cap as the analytic mode
// (cap_ana).
func E15Pipecast(gridSides, wheelRims, chainBags []int, seed int64) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "pipelined multi-token convergecast: O(h+k) streaming vs k sequential convergecasts",
		Header: []string{"family", "n", "h", "k", "r_pipe", "bound", "r_seq", "speedup", "chg_pipe", "chg_seq", "cap_sim", "cap_ana", "r_boot"},
	}
	rows := forEachFamily(gridSides, wheelRims, chainBags, seed, func(f familyPoint) row {
		return pipecastRow(f.family, f.g, f.p)
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"r_pipe: measured rounds streaming all k block-count tokens up in one pipelined convergecast; bound: height + k + 1",
		"r_seq: measured rounds of k single-token convergecasts run back to back (the unpipelined strategy)",
		"chg_pipe/chg_seq: the analytic-ledger charges for the same two strategies",
		"cap_sim/cap_ana: the cap each SearchCap mode selects (must agree); r_boot: the simulate run's measured priority-bootstrap rounds")
	return t
}

// pipecastRow runs the pipelined and sequential strategies over one
// family instance plus the two-mode cap-search validation, and formats
// one table row.
func pipecastRow(family string, g *graph.Graph, p *partition.Parts) row {
	setup, err := pipeline.SelfSetup(g, true)
	if err != nil {
		panic(err)
	}
	tr := setup.Tree
	k := p.NumParts()
	// The payload is the bootstrap's own workload (congest.BlockTopTokens),
	// so the table measures exactly the protocol the search runs.
	pres, err := congest.Pipecast(tr, k, congest.BlockTopTokens(tr, p), congest.CombineCount)
	if err != nil {
		panic(err)
	}
	// Sequential repetition: one single-token convergecast per part, the
	// k·O(height) baseline the pipelined layer replaces.
	rSeq := 0
	vals := make([]uint64, g.N())
	contrib := congest.BlockTopTokens(tr, p)
	for i := 0; i < k; i++ {
		for v := range vals {
			vals[v] = 0
			if len(contrib[v]) == 1 && contrib[v][0].Tag == int32(i) {
				vals[v] = 1
			}
		}
		_, stats, err := congest.TreeSum(tr, vals)
		if err != nil {
			panic(err)
		}
		rSeq += stats.LastActiveRound
	}
	sim, err := congest.SearchCap(g, tr, p, congest.SearchOptions{Simulate: true})
	if err != nil {
		panic(err)
	}
	ana, err := congest.SearchCap(g, tr, p, congest.SearchOptions{})
	if err != nil {
		panic(err)
	}
	return row{family, g.N(), tr.Height(), k,
		pres.EffectiveRounds, tr.Height() + k + 1, rSeq,
		float64(rSeq) / float64(pres.EffectiveRounds),
		congest.PipecastBudget(tr, k), k * congest.PipecastBudget(tr, 1),
		sim.Cap, ana.Cap, sim.BootstrapRounds}
}
