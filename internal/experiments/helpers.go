package experiments

import (
	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// aggregate runs one part-wise min aggregation and returns the effective
// round count.
func aggregate(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut, keys []uint64) (int, error) {
	res, err := congest.AggregateMin(g, p, s, keys)
	if err != nil {
		return 0, err
	}
	return res.EffectiveRounds, nil
}

// Runner couples an experiment table's ID with its runner, so callers
// (cmd/allbench's -table flag, BenchmarkTables, the smoke tests) can
// regenerate a single table without running the whole suite. Run builds
// the table at bench-friendly sizes, or at the larger -big sweep when big
// is set; tables without a larger sweep ignore big.
type Runner struct {
	ID  string
	Run func(seed int64, big bool) *Table
}

// sweep returns base, extended by more when big is set.
func sweep(big bool, base []int, more ...int) []int {
	if !big {
		return base
	}
	return append(base, more...)
}

// Runners returns every experiment, in ID order. This is the one place that
// decides which instances a table runs.
func Runners() []Runner {
	return []Runner{
		{"E1", func(seed int64, big bool) *Table { return E1PlanarQuality(sweep(big, []int{6, 10, 14, 18}, 24), seed) }},
		{"E2", func(seed int64, big bool) *Table { return E2Treewidth(400, sweep(big, []int{2, 3, 4, 6}, 8), seed) }},
		{"E3", func(seed int64, big bool) *Table { return E3CliqueSum(sweep(big, []int{2, 4, 8, 12}, 16), 18, 3, seed) }},
		{"E4", func(seed int64, big bool) *Table { return E4AlmostEmbeddable(seed) }},
		{"E5", func(seed int64, big bool) *Table { return E5Main(sweep(big, []int{2, 4, 8, 16}, 24), seed) }},
		{"E6", func(seed int64, big bool) *Table { return E6MST([]int{64, 128, 256, 512}, seed) }},
		{"E6b", func(seed int64, big bool) *Table { return E6bMSTExcludedMinor(sweep(big, []int{2, 4, 8}, 16), seed) }},
		{"E6c", func(seed int64, big bool) *Table { return AggregationShowcase([]int{16, 32, 64, 128}, seed) }},
		{"E7", func(seed int64, big bool) *Table { return E7MinCut(sweep(big, []int{40, 80, 160}, 320, 640), seed) }},
		{"E8", func(seed int64, big bool) *Table { return E8LowerBound(sweep(big, []int{4, 8, 12, 16}, 20), seed) }},
		{"E8b", func(seed int64, big bool) *Table { return E8bLowerBoundMST(sweep(big, []int{4, 6, 8}, 12), seed) }},
		{"E9", func(seed int64, big bool) *Table {
			return E9SSSP(sweep(big, []int{64, 128, 256, 512}, 1024, 2048),
				sweep(big, []int{32, 64, 128, 256}, 512, 1024), seed)
		}},
		{"E10", func(seed int64, big bool) *Table { return E10FoldingAblation([]int{8, 16, 32, 64}, seed) }},
		{"E11", func(seed int64, big bool) *Table { return E11ApexEffect(sweep(big, []int{32, 64, 128}, 256), seed) }},
		{"E12", func(seed int64, big bool) *Table { return E12Planarize([]int{0, 1, 2, 3}, seed) }},
		{"E13", func(seed int64, big bool) *Table {
			return E13Construct(sweep(big, []int{6, 10, 14}, 18, 24), sweep(big, []int{32, 64}, 128, 256),
				sweep(big, []int{2, 4, 8, 16}, 32), seed)
		}},
		{"E14", func(seed int64, big bool) *Table {
			return E14Pipeline(sweep(big, []int{6, 10, 14}, 18, 24), sweep(big, []int{32, 64}, 128, 256),
				sweep(big, []int{2, 4, 8, 16}, 32), seed)
		}},
		{"E15", func(seed int64, big bool) *Table {
			return E15Pipecast(sweep(big, []int{6, 10, 14}, 18, 24), sweep(big, []int{32, 64}, 128, 256),
				sweep(big, []int{2, 4, 8, 16}, 32), seed)
		}},
		{"E18", func(seed int64, big bool) *Table {
			return E18Churn(sweep(big, []int{6, 10, 14}, 18, 24), sweep(big, []int{32, 64}, 128),
				sweep(big, []int{2, 4}, 8), 40, seed)
		}},
		{"E19", func(seed int64, big bool) *Table {
			serveRim := 9999
			if big {
				serveRim = 19999
			}
			return E19Query(sweep(big, []int{10}, 14), sweep(big, []int{64}, 128), sweep(big, []int{8}, 12),
				serveRim, 20000, false, seed)
		}},
	}
}

// ByID regenerates the single experiment table with the given ID (case
// as listed — "E6c", "E15"), at the -big sweep when big is set; ok is
// false for an unknown ID.
func ByID(id string, seed int64, big bool) (t *Table, ok bool) {
	for _, r := range Runners() {
		if r.ID == id {
			return r.Run(seed, big), true
		}
	}
	return nil, false
}

// IDs lists every experiment table ID in order.
func IDs() []string {
	rs := Runners()
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// All runs every experiment (at the -big sweeps when big is set) and
// returns the tables in ID order. The tables build concurrently (each one
// also parallelizes its own grid points); results are deterministic either
// way. Used by cmd/allbench and smoke tests.
func All(seed int64, big bool) []*Table {
	runners := Runners()
	return forEachPoint(len(runners), func(i int) *Table { return runners[i].Run(seed, big) })
}
