package experiments

import (
	"math/rand"
	"strconv"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/sssp"
)

// E19Query measures the query-serving layer: one zero-witness construction
// (analytic SelfSetup + SearchCap — byte-identical to the simulated
// pipeline) serves batched k-source SSSP and cached distance queries.
//
// Left half, the batching win: k=8 sources computed by one batched run
// (sssp.ApproxBatch, tag-multiplexed tokens over the shared part channels)
// versus k sequential single-source runs (sssp.Approx, the same kernel at
// k=1) over the identical shortcut, in the same ledger. On the E14
// families the batch runs message-level on the engine: r_batch/r_seq are
// measured simulated rounds, rp_max the largest per-phase quiet-point
// against its O(h+k) budget rp_bound (congest.BatchRelaxBudget, the
// single-source budget plus k−1), and the acceptance bar is speedup > 2
// on TestE19QueryAcceptance's instances with byte-identical answers
// (pinned by the sssp tests); the registry's default k5free row sits just
// under it. The 10⁴-node serving row books both schedules analytically —
// same formulas, bigger network.
//
// Right half, the serving story: a seeded Zipf-skewed trace replayed twice
// against the oracle. The cold pass reports hit rate and amortized
// rounds/query (every distinct source costs one batched miss, every other
// query rides the cache at zero rounds); the second pass of the same trace
// reports warmed queries/sec — steady-state serving throughput, the
// acceptance bar being ≥ 10⁵ qps at 10⁴ nodes.
//
// wallclock enables the qps column (warmed wall-clock throughput, the one
// non-deterministic figure); registry runs, default and -big, pass false
// so allbench output stays byte-identical across runs and GOMAXPROCS.
// TestE19QueryAcceptance passes true to hold the serve row to ≥ 10⁵ qps.
func E19Query(gridSides, wheelRims, chainBags []int, serveRim, queries int, wallclock bool, seed int64) *Table {
	t := &Table{
		ID:     "E19",
		Title:  "query serving: batched k-source SSSP + cached distance oracle over one construction",
		Header: []string{"family", "n", "parts", "k", "r_batch", "r_seq", "speedup", "rp_max", "rp_bound", "queries", "hit_pct", "qps", "r_query"},
	}
	ng, nw := len(gridSides), len(wheelRims)
	rows := forEachPoint(ng+nw+len(chainBags)+1, func(i int) row {
		rng := pointRNG(seed, i)
		switch {
		case i < ng:
			s := gridSides[i]
			e := gen.Grid(s, s)
			g := gen.UniformWeights(e.G, rng)
			p, err := partition.GridRows(g, s, s)
			if err != nil {
				panic(err)
			}
			return queryRow("grid", g, p, true, 8, queries, wallclock, rng)
		case i < ng+nw:
			rim := wheelRims[i-ng]
			a := gen.CycleWithApex(rim, rng)
			g := gen.UniformWeights(a.G, rng)
			// Heavy spokes: shortest paths ride the rim instead of hopping
			// the apex, so the relaxation flood has real hop-depth — the
			// latency the batched schedule pipelines away. (An apex-routed
			// wheel has h≈2 and nothing for batching to save.)
			apex := a.Apices[0]
			for id := 0; id < g.M(); id++ {
				if e := g.Edge(id); e.U == apex || e.V == apex {
					g.SetWeight(id, e.W*float64(rim))
				}
			}
			p, err := partition.RimArcs(g, 8)
			if err != nil {
				panic(err)
			}
			return queryRow("wheel", g, p, true, 8, queries, wallclock, rng)
		case i < ng+nw+len(chainBags):
			nb := chainBags[i-ng-nw]
			pieces := make([]*gen.Piece, nb)
			for j := range pieces {
				pieces[j] = gen.ApollonianPiece(12+rng.Intn(6), rng)
			}
			// A path-glued chain partitioned by bag: shortest paths cross
			// one part boundary per phase, so every phase floods real
			// depth — the regime where one batched schedule amortizes k
			// sources. (A Voronoi partition over the same chain leaves most
			// sequential phases trivially quiet and the comparison noisy.)
			cs := gen.CliqueSumChain(pieces, 3, rng)
			g := gen.UniformWeights(cs.G, rng)
			p, err := bagAlignedParts(g, cs)
			if err != nil {
				panic(err)
			}
			return queryRow("k5free", g, p, true, 8, queries, wallclock, rng)
		default:
			// The serving row: a 10⁴-node wheel (constant diameter, few
			// relaxation phases) under the same trace, analytic ledger.
			a := gen.CycleWithApex(serveRim, rng)
			g := gen.UniformWeights(a.G, rng)
			p, err := partition.RimArcs(g, 64)
			if err != nil {
				panic(err)
			}
			return queryRow("serve-wheel", g, p, false, 16, queries, wallclock, rng)
		}
	})
	for _, r := range rows {
		t.AddRow(r...)
	}
	t.Notes = append(t.Notes,
		"r_batch: one batched k-source run (sssp.ApproxBatch); r_seq: k sequential single-source runs over the same shortcut, same ledger (simulated on the E14 families, charged on the serve row)",
		"rp_max: largest measured per-phase quiet-point of the batch; rp_bound: the O(h+k) per-phase budget congest.BatchRelaxBudget — the O(h+k)-not-k·O(h) claim ('-' on analytic rows)",
		"hit_pct/r_query: cold replay of a Zipf(1.5) trace (each distinct source = one batched miss, window 1024); qps: the same trace replayed against the warmed cache (wall-clock, not deterministic; '-' unless enabled — registry runs keep allbench byte-identical)",
		"answers are byte-identical between the batched and sequential schedules (pinned by internal/sssp's E14-family equality tests)")
	return t
}

// bagAlignedParts partitions a clique-sum chain by decomposition bag:
// each vertex joins its first containing bag, and every connected
// component of a bag's vertex set becomes one part (separator triangles
// belong to the earlier bag, which can split the later bag's remainder).
func bagAlignedParts(g *graph.Graph, cs *gen.CliqueSumGraph) (*partition.Parts, error) {
	owner := make([]int, g.N())
	for i := range owner {
		owner[i] = -1
	}
	for b, glob := range cs.BagToGlobal {
		for _, v := range glob {
			if owner[v] < 0 {
				owner[v] = b
			}
		}
	}
	var sets [][]int
	visited := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if visited[v] {
			continue
		}
		comp := []int{v}
		visited[v] = true
		for qi := 0; qi < len(comp); qi++ {
			for _, a := range g.Adj(comp[qi]) {
				if !visited[a.To] && owner[a.To] == owner[v] {
					visited[a.To] = true
					comp = append(comp, a.To)
				}
			}
		}
		sets = append(sets, comp)
	}
	return partition.New(g, sets)
}

// queryRow bootstraps the construction through the analytic zero-witness
// pipeline, measures batched-vs-sequential k-source SSSP, replays the
// query trace cold and warmed, and formats one table row.
func queryRow(family string, g *graph.Graph, p *partition.Parts, simulate bool, k, queries int, wallclock bool, rng *rand.Rand) row {
	setup, err := pipeline.SelfSetup(g, false)
	if err != nil {
		panic(err)
	}
	search, err := congest.SearchCap(g, setup.Tree, p, congest.SearchOptions{})
	if err != nil {
		panic(err)
	}
	const eps = 0.125
	n := g.N()
	srcs := make([]int, k)
	for i := range srcs {
		srcs[i] = (i * n / k) % n
	}
	opts := sssp.Options{Eps: eps, Simulate: simulate}
	batch, err := sssp.ApproxBatch(g, srcs, p, search.S, opts)
	if err != nil {
		panic(err)
	}
	rBatch := batch.CommRounds + batch.ChargedRounds
	rSeq := 0
	for _, src := range srcs {
		seq, err := sssp.Approx(g, src, p, search.S, opts)
		if err != nil {
			panic(err)
		}
		rSeq += seq.CommRounds + seq.ChargedRounds
	}
	rpMax := "-"
	if simulate {
		rpMax = strconv.Itoa(batch.MaxPhaseRounds)
	}
	o, err := query.New(g, p, search.S, query.Options{Eps: eps})
	if err != nil {
		panic(err)
	}
	trace := query.TraceOptions{Queries: queries, ZipfS: 1.5, Seed: rng.Int63()}
	cold, err := query.Replay(o, trace)
	if err != nil {
		panic(err)
	}
	warm, err := query.Replay(o, trace)
	if err != nil {
		panic(err)
	}
	qps := "-"
	if wallclock {
		qps = strconv.FormatFloat(warm.QPS, 'f', 2, 64)
	}
	return row{family, n, p.NumParts(), k,
		rBatch, rSeq, float64(rSeq) / float64(rBatch), rpMax, batch.PhaseBudget,
		cold.Queries, 100 * cold.HitRate, qps, cold.RoundsPerQuery}
}
