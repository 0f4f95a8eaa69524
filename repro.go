// Package repro is a reproduction of "Minor Excluded Network Families Admit
// Fast Distributed Algorithms" (Haeupler, Li, Zuzic; PODC 2018): a library
// for building networks from excluded-minor graph families, constructing
// tree-restricted low-congestion shortcuts on them — both obliviously and
// from Graph-Structure-Theorem witnesses — and running the shortcut-
// framework distributed algorithms (MST, (1+ε)-approximate min-cut,
// (1+ε)-approximate single-source shortest paths) on a CONGEST simulator
// with exact round accounting.
//
// This package is the high-level facade; the machinery lives in internal/
// packages (graph, embed, tw, structure, gen, partition, shortcut, core,
// congest, mst, mincut, sssp). Type aliases re-export what users need.
//
// Quick start:
//
//	nw, _ := repro.GridNetwork(16, 16, 1)
//	parts, _ := nw.VoronoiParts(12)
//	sc, _ := nw.BuildShortcut(parts)
//	fmt.Println(sc.Measurement.Quality)
//	res, _ := nw.MST()
//	fmt.Println(res.CommRounds, res.Weight)
package repro

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/shortcut"
	"repro/internal/sssp"
	"repro/internal/structure"
	"repro/internal/xrand"
)

// Graph is the weighted undirected multigraph used throughout.
type Graph = graph.Graph

// Tree is a rooted spanning tree with graph-edge identities.
type Tree = graph.Tree

// Parts is a family of disjoint connected vertex subsets (Definition 9).
type Parts = partition.Parts

// Shortcut is a tree-restricted shortcut assignment (Definition 10).
type Shortcut = shortcut.Shortcut

// Measurement holds congestion, block parameter and quality (Defs. 11-13).
type Measurement = shortcut.Measurement

// Network couples a connected graph with a BFS spanning tree and whatever
// structural witnesses its generator provided. Witnesses steer BuildShortcut
// toward the matching construction from the paper.
type Network struct {
	G    *Graph
	Tree *Tree

	// At most one witness is typically set.
	CliqueSum   *core.CliqueSumWitness
	AlmostEmbed *structure.AlmostEmbeddable
	KTree       *gen.KTreeGraph

	seed int64
}

// NewNetwork wraps a connected graph, rooting a BFS tree at root.
func NewNetwork(g *Graph, root int) (*Network, error) {
	t, err := graph.BFSTree(g, root)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &Network{G: g, Tree: t, seed: 1}, nil
}

// GridNetwork builds a rows x cols planar grid network with uniformly random
// edge weights (deterministic in seed).
func GridNetwork(rows, cols int, seed int64) (*Network, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("repro: grid needs rows, cols >= 1, got %dx%d", rows, cols)
	}
	rng := xrand.New(seed)
	e := gen.Grid(rows, cols)
	gen.DistinctWeights(gen.UniformWeights(e.G, rng))
	nw, err := NewNetwork(e.G, 0)
	if err != nil {
		return nil, err
	}
	nw.seed = seed
	return nw, nil
}

// PlanarNetwork builds a random maximal planar network (Apollonian) on n
// vertices.
func PlanarNetwork(n int, seed int64) (*Network, error) {
	if n < 3 {
		return nil, fmt.Errorf("repro: planar network needs n >= 3, got %d", n)
	}
	rng := xrand.New(seed)
	a := gen.NewApollonian(n, rng)
	gen.DistinctWeights(gen.UniformWeights(a.G, rng))
	nw, err := NewNetwork(a.G, 0)
	if err != nil {
		return nil, err
	}
	nw.seed = seed
	return nw, nil
}

// ExcludedMinorNetwork builds a K5-minor-free network: a 3-clique-sum of
// random planar triangulations (Wagner's characterization), carrying its
// clique-sum witness so BuildShortcut can realize Theorem 6.
func ExcludedMinorNetwork(numBags, bagSize int, seed int64) (*Network, error) {
	if numBags < 1 || bagSize < 3 {
		return nil, fmt.Errorf("repro: excluded-minor network needs numBags >= 1 and bagSize >= 3, got %d, %d", numBags, bagSize)
	}
	rng := xrand.New(seed)
	pieces := make([]*gen.Piece, numBags)
	for i := range pieces {
		pieces[i] = gen.ApollonianPiece(bagSize, rng)
	}
	cs := gen.CliqueSum(pieces, 3, rng)
	gen.DistinctWeights(gen.UniformWeights(cs.G, rng))
	nw, err := NewNetwork(cs.G, 0)
	if err != nil {
		return nil, err
	}
	nw.CliqueSum = &core.CliqueSumWitness{
		CST:         cs.CST,
		BagGraphs:   cs.BagGraphs,
		BagDecomp:   cs.BagDecomp,
		BagToGlobal: cs.BagToGlobal,
	}
	nw.seed = seed
	return nw, nil
}

// ApexNetwork builds a planar grid plus one apex connected to every base
// vertex (the paper's diameter-collapsing scenario, §2.3.2), rooted at the
// apex, carrying its almost-embeddable witness.
func ApexNetwork(rows, cols int, seed int64) (*Network, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("repro: apex grid needs rows, cols >= 1, got %dx%d", rows, cols)
	}
	rng := xrand.New(seed)
	a := gen.PlanarWithApex(rows, cols, rng)
	gen.DistinctWeights(gen.UniformWeights(a.G, rng))
	nw, err := NewNetwork(a.G, a.Apices[0])
	if err != nil {
		return nil, err
	}
	nw.AlmostEmbed = a
	nw.seed = seed
	return nw, nil
}

// KTreeNetwork builds a random k-tree network carrying its treewidth
// witness.
func KTreeNetwork(n, k int, seed int64) (*Network, error) {
	if k < 0 || n < k+1 {
		return nil, fmt.Errorf("repro: k-tree network needs k >= 0 and n >= k+1, got n=%d k=%d", n, k)
	}
	rng := xrand.New(seed)
	kt := gen.KTree(n, k, rng)
	gen.DistinctWeights(gen.UniformWeights(kt.G, rng))
	nw, err := NewNetwork(kt.G, 0)
	if err != nil {
		return nil, err
	}
	nw.KTree = kt
	nw.seed = seed
	return nw, nil
}

// VoronoiParts partitions the network into numSeeds connected parts by
// multi-source BFS from random seeds.
func (nw *Network) VoronoiParts(numSeeds int) (*Parts, error) {
	return partition.Voronoi(nw.G, numSeeds, xrand.New(nw.seed+101))
}

// FragmentParts returns the Borůvka fragments after the given number of
// phases — the part family the MST algorithm actually queries.
func (nw *Network) FragmentParts(phases int) (*Parts, error) {
	return partition.BoruvkaFragments(nw.G, phases)
}

// ShortcutResult couples a shortcut with its measurement and diagnostics.
type ShortcutResult struct {
	S           *Shortcut
	Measurement Measurement
	Info        map[string]int
}

// BuildShortcut constructs a tree-restricted shortcut for the given parts:
// the witness-matched construction when a witness is present (Theorems 6-8,
// via internal/core), compared against the oblivious construction
// ([HIZ16a]-style), returning whichever measures better — mirroring the
// paper's remark that the framework algorithm is free to do better than the
// existence bound.
func (nw *Network) BuildShortcut(p *Parts) (*ShortcutResult, error) {
	candidates := []*core.Result{core.FromOblivious(nw.G, nw.Tree, p)}
	switch {
	case nw.CliqueSum != nil:
		r, err := core.ExcludedMinorShortcut(nw.G, nw.Tree, p, nw.CliqueSum)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, r)
	case nw.AlmostEmbed != nil:
		r, err := core.AlmostEmbeddableShortcut(nw.G, nw.Tree, p, nw.AlmostEmbed)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, r)
	case nw.KTree != nil:
		tr, err := shortcut.FromTreewidth(nw.G, nw.Tree, p, nw.KTree.Decomp)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, &core.Result{S: tr.S, M: tr.S.Measure(), Info: map[string]int{
			"foldedHeight": tr.FoldedHeight,
			"foldedWidth":  tr.FoldedWidth,
		}})
	}
	best := core.BestOf(candidates...)
	return &ShortcutResult{S: best.S, Measurement: best.M, Info: best.Info}, nil
}

// ConstructResult reports a distributed in-network shortcut construction.
type ConstructResult = congest.ConstructResult

// ConstructShortcut builds a tree-restricted shortcut fully in-network: the
// part-wise flooding construction with congestion cap (0 runs the
// in-network doubling cap search, congest.SearchCap, and its rounds are
// part of the result). With simulate the construction runs as an actual
// CONGEST protocol and reports measured rounds; otherwise the fixed point
// is computed sequentially and the framework's construction budget is
// charged — the two-ledger convention of MST/min-cut/SSSP. Unlike
// BuildShortcut, no structure witness is consulted: this is what a deployed
// network can do on its own.
func (nw *Network) ConstructShortcut(p *Parts, cap int, simulate bool) (*ConstructResult, error) {
	if cap < 1 {
		sr, err := congest.SearchCap(nw.G, nw.Tree, p, congest.SearchOptions{Simulate: simulate})
		if err != nil {
			return nil, err
		}
		return &ConstructResult{
			S:               sr.S,
			Cap:             sr.Cap,
			Stats:           sr.Stats,
			EffectiveRounds: sr.EffectiveRounds,
			ChargedRounds:   sr.ChargedRounds,
		}, nil
	}
	return congest.ConstructShortcut(nw.G, nw.Tree, p, congest.ConstructOptions{Cap: cap, Simulate: simulate})
}

// bootstrap runs the zero-witness setup over the network: leader election
// plus distributed BFS, yielding the elected tree and its two-ledger cost.
func (nw *Network) bootstrap(simulate bool) (*pipeline.Setup, error) {
	return pipeline.SelfSetup(nw.G, simulate)
}

// FaultPlan is a deterministic fault schedule for simulated runs: seeded
// per-edge Bernoulli message drops (with an optional horizon), link
// outages over round intervals, and node crash/restart windows.
type FaultPlan = congest.FaultPlan

// LinkDown takes one edge down for a global-round interval.
type LinkDown = congest.LinkDown

// Crash takes one node down (optionally wiping its protocol state at
// restart) for a global-round interval.
type Crash = congest.Crash

// Adversary drives a FaultPlan across a sequence of protocol runs,
// advancing the fault timeline between retries and counting them.
type Adversary = congest.Adversary

// NewAdversary wraps a fault plan for resilient runs.
func NewAdversary(plan FaultPlan) *Adversary { return congest.NewAdversary(plan) }

// ConstructShortcutResilient is ConstructShortcut (simulate mode) on a
// degraded network: every protocol runs under the adversary's fault plan,
// retrying with doubled budgets on non-convergence, and — whenever the
// plan leaves the graph connected — converges to the identical shortcut
// and cap as the fault-free run. cap < 1 runs the resilient in-network cap
// search.
func (nw *Network) ConstructShortcutResilient(p *Parts, cap int, adv *Adversary) (*ConstructResult, error) {
	if cap < 1 {
		sr, err := congest.SearchCap(nw.G, nw.Tree, p, congest.SearchOptions{Simulate: true, Adversary: adv})
		if err != nil {
			return nil, err
		}
		return &ConstructResult{
			S:               sr.S,
			Cap:             sr.Cap,
			Stats:           sr.Stats,
			EffectiveRounds: sr.EffectiveRounds,
			ChargedRounds:   sr.ChargedRounds,
		}, nil
	}
	return congest.ConstructShortcut(nw.G, nw.Tree, p, congest.ConstructOptions{Cap: cap, Simulate: true, Adversary: adv})
}

// MaintainedShortcut is a shortcut kept consistent under edge churn via
// dirty-path repair (shortcut.Maintain/Repair).
type MaintainedShortcut = shortcut.Maintained

// ChurnEvent is one churn event for MaintainShortcut: a weight update, an
// edge insert, or an edge delete.
type ChurnEvent = shortcut.Event

// RepairReport describes what one repair did: dirty vertices, modeled
// repair rounds, tree patching, and the rebuild recommendation.
type RepairReport = shortcut.RepairReport

// Churn event kinds (re-exported).
const (
	WeightUpdate = shortcut.WeightUpdate
	EdgeInsert   = shortcut.EdgeInsert
	EdgeDelete   = shortcut.EdgeDelete
)

// MaintainShortcut builds the flooding construction at the given cap
// (cap < 1 first runs the in-network cap search, analytic mode) and wraps
// it for incremental repair under churn: feed edge events to Repair on the
// returned value; it re-floods admissions only along the dirty tree path
// and recommends a full rebuild when quality degrades past rebuildFactor
// (values <= 1 select the default threshold of 2).
func (nw *Network) MaintainShortcut(p *Parts, cap int, rebuildFactor float64) (*MaintainedShortcut, error) {
	if cap < 1 {
		sr, err := congest.SearchCap(nw.G, nw.Tree, p, congest.SearchOptions{})
		if err != nil {
			return nil, err
		}
		return shortcut.MaintainPrio(nw.G, nw.Tree, p, sr.Cap, sr.Priorities, rebuildFactor)
	}
	return shortcut.Maintain(nw.G, nw.Tree, p, cap, rebuildFactor)
}

// MSTConstructed runs the shortcut-framework Borůvka with zero
// generator-supplied structure: the network elects a leader, builds its own
// BFS tree, and per phase runs the in-network doubling cap search with
// block-count part priorities — no witness, tree, or cap input. simulate
// selects the measured-rounds ledger for every bootstrap and construction
// round; otherwise the framework budgets are charged.
func (nw *Network) MSTConstructed(simulate bool) (*MSTResult, error) {
	setup, err := nw.bootstrap(simulate)
	if err != nil {
		return nil, err
	}
	rs, err := mst.ShortcutBoruvka(nw.G, setup.Provider())
	if err != nil {
		return nil, err
	}
	rs.CommRounds += setup.Cost.Simulated
	rs.ChargedRounds += setup.Cost.Charged
	return rs, nil
}

// MinCutConstructed runs the tree-packing (1+ε)-approximate minimum cut
// with zero generator-supplied structure: every packing iteration's MST
// runs the distributed Borůvka over the self-built tree (transferred onto
// the iteration's reweighted copy) with in-network cap-searched shortcuts.
// The bootstrap's rounds are folded into the matching ledger.
func (nw *Network) MinCutConstructed(eps float64, simulate bool) (*CutResult, error) {
	setup, err := nw.bootstrap(simulate)
	if err != nil {
		return nil, err
	}
	res, err := mincut.Approx(nw.G, mincut.Options{
		Eps:           eps,
		TwoRespecting: nw.G.N() <= 400,
		SimulateMST:   simulate,
		ProviderFor: func(h *graph.Graph) (pipeline.Provider, error) {
			ht, err := setup.TreeFor(h)
			if err != nil {
				return nil, err
			}
			return pipeline.AutoFlood(h, ht, simulate), nil
		},
	})
	if err != nil {
		return nil, err
	}
	res.CommRounds += setup.Cost.Simulated
	res.ChargedRounds += setup.Cost.Charged
	return res, nil
}

// SSSPSelfSufficient runs the (1+ε)-approximate single-source shortest
// paths with zero generator-supplied structure: the network elects a
// leader, builds its own BFS tree, decomposes itself into Borůvka
// fragments in-network (per phase, a pipelined min-convergecast of
// fragment-best outgoing edges plus a pipelined relabeling broadcast over
// the elected tree — congest.BoruvkaDecompose), cap-searches a shortcut
// over the fragments, and runs the part-wise relaxation. In simulate mode
// every decomposition round is measured on the engine; analytic mode
// charges the pipelined O(height + fragments) budget per phase.
func (nw *Network) SSSPSelfSufficient(src int, eps float64, simulate bool) (*SSSPResult, error) {
	setup, err := nw.bootstrap(simulate)
	if err != nil {
		return nil, err
	}
	phases := 2
	for n := nw.G.N(); (1 << (2 * phases)) < n; phases++ {
	}
	parts, decompCost, err := setup.Decompose(phases)
	if err != nil {
		return nil, err
	}
	r, err := sssp.ApproxProvided(nw.G, src, parts, setup.Provider(), sssp.Options{Eps: eps, Simulate: simulate})
	if err != nil {
		return nil, err
	}
	r.CommRounds += setup.Cost.Simulated + decompCost.Simulated
	r.ChargedRounds += setup.Cost.Charged + decompCost.Charged
	return r, nil
}

// MSTResult reports a distributed MST run.
type MSTResult = mst.RunStats

// MST runs the shortcut-framework Borůvka (Theorem 1 + Corollary 1) on the
// network, using witness-based shortcuts when available.
func (nw *Network) MST() (*MSTResult, error) {
	provider := func(p *Parts) (*Shortcut, pipeline.Rounds, error) {
		sc, err := nw.BuildShortcut(p)
		if err != nil {
			return nil, pipeline.Rounds{}, err
		}
		return sc.S, pipeline.Rounds{Charged: sc.Measurement.Quality}, nil
	}
	return mst.ShortcutBoruvka(nw.G, provider)
}

// MSTBaseline runs the same algorithm without any shortcuts (naive
// fragment-internal flooding).
func (nw *Network) MSTBaseline() (*MSTResult, error) {
	return mst.ShortcutBoruvka(nw.G, mst.EmptyProvider(nw.G, nw.Tree))
}

// MSTPipelined runs the O(D+√n)-style two-phase baseline.
func (nw *Network) MSTPipelined() (*MSTResult, error) {
	return mst.PipelinedMST(nw.G)
}

// CutResult reports an approximate min-cut run.
type CutResult = mincut.Result

// ApproxMinCut runs the tree-packing (1+ε)-approximate minimum cut
// (Corollary 1). TwoRespecting evaluation is enabled for networks small
// enough to afford it.
func (nw *Network) ApproxMinCut(eps float64) (*CutResult, error) {
	return mincut.Approx(nw.G, mincut.Options{
		Eps:           eps,
		TwoRespecting: nw.G.N() <= 400,
	})
}

// ExactMinCut computes the exact minimum cut (Stoer-Wagner reference).
func (nw *Network) ExactMinCut() (float64, []int, error) {
	return graph.GlobalMinCut(nw.G)
}

// SSSPResult reports an approximate shortest-path run.
type SSSPResult = sssp.Result

// ApproxSSSP runs the (1+ε)-approximate single-source shortest paths of
// the shortcut framework from src over the given parts, using
// witness-matched shortcuts when available. Distances over-estimate the
// true ones by at most the factor 1+ε.
func (nw *Network) ApproxSSSP(src int, p *Parts, eps float64) (*SSSPResult, error) {
	sc, err := nw.BuildShortcut(p)
	if err != nil {
		return nil, err
	}
	return sssp.Approx(nw.G, src, p, sc.S, sssp.Options{Eps: eps})
}

// ExactSSSP computes exact shortest paths (Dijkstra reference).
func (nw *Network) ExactSSSP(src int) (*graph.SPResult, error) {
	return graph.Dijkstra(nw.G, src)
}

// BatchSSSPResult reports a batched k-source approximate shortest-path
// run.
type BatchSSSPResult = sssp.BatchResult

// ApproxSSSPBatch runs the batched k-source (1+ε)-SSSP: one relaxation
// schedule pipelines every source's tokens (tag = source index) over the
// same witness-matched shortcut, returning per-source distance vectors
// bit-identical to k sequential ApproxSSSP runs at O(h+k) rounds per
// phase instead of k·O(h).
func (nw *Network) ApproxSSSPBatch(srcs []int, p *Parts, eps float64) (*BatchSSSPResult, error) {
	sc, err := nw.BuildShortcut(p)
	if err != nil {
		return nil, err
	}
	return sssp.ApproxBatch(nw.G, srcs, p, sc.S, sssp.Options{Eps: eps})
}

// DistanceOracle serves (1+ε)-approximate distance queries over one
// constructed shortcut: cache misses run batched k-source SSSP, hits cost
// zero communication rounds, and churn events on a maintained shortcut
// flush the cache through the repair hook.
type DistanceOracle = query.Oracle

// OracleOptions configures a DistanceOracle (stretch, ledger mode, cache
// capacity).
type OracleOptions = query.Options

// OracleStats is a DistanceOracle cache/cost snapshot.
type OracleStats = query.Stats

// TraceOptions configures a synthetic query-trace replay against a
// DistanceOracle.
type TraceOptions = query.TraceOptions

// TraceReport summarizes a replayed query trace: hit rate, rounds per
// query, throughput, and the determinism checksum.
type TraceReport = query.Report

// NewDistanceOracle builds a distance oracle over the given parts using
// the witness-matched shortcut construction.
func (nw *Network) NewDistanceOracle(p *Parts, opts OracleOptions) (*DistanceOracle, error) {
	sc, err := nw.BuildShortcut(p)
	if err != nil {
		return nil, err
	}
	return query.New(nw.G, p, sc.S, opts)
}

// MaintainedDistanceOracle couples a distance oracle to a maintained
// shortcut (see MaintainShortcut): churn events fed to the returned
// maintainer's Repair invalidate the oracle's cache, so post-churn queries
// recompute against the repaired construction.
func (nw *Network) MaintainedDistanceOracle(p *Parts, cap int, rebuildFactor float64, opts OracleOptions) (*DistanceOracle, *MaintainedShortcut, error) {
	m, err := nw.MaintainShortcut(p, cap, rebuildFactor)
	if err != nil {
		return nil, nil, err
	}
	o, err := query.FromMaintained(m, opts)
	if err != nil {
		return nil, nil, err
	}
	return o, m, nil
}

// ReplayTrace drives a seeded Zipf-skewed synthetic query trace against
// the oracle: per window, distinct missing sources are computed in one
// batched k-source run, then the window is served concurrently from the
// cache. The report's deterministic fields are byte-identical across
// worker counts.
func ReplayTrace(o *DistanceOracle, t TraceOptions) (*TraceReport, error) {
	return query.Replay(o, t)
}

// Diameter returns the exact hop diameter for small networks and the
// double-sweep estimate for large ones (> 4000 vertices).
func (nw *Network) Diameter() int {
	if nw.G.N() > 4000 {
		return graph.DiameterApprox(nw.G)
	}
	return graph.Diameter(nw.G)
}
