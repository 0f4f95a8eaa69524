package congest_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// wheelTriple builds the standard wheel test network: rim-arc parts and an
// oblivious shortcut over a hub-rooted BFS tree.
func wheelTriple(t *testing.T, rim, arcs int, seed int64) (*graph.Graph, *partition.Parts, *shortcut.Shortcut) {
	t.Helper()
	rng := xrand.New(seed)
	g := gen.UniformWeights(gen.Wheel(rim).G, rng)
	p, err := partition.RimArcs(g, arcs)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shortcut.ObliviousAuto(g, tr, p)
	return g, p, s
}

// The batched k-source relaxation must return, per source, exactly the
// bytes a single-source (k=1) run returns — the tags share channels but
// never mix values.
func TestBatchRelaxMatchesSequential(t *testing.T) {
	g, p, s := wheelTriple(t, 65, 4, 3)
	weights := edgeWeights(g)
	const k = 8
	init := make([][]float64, k)
	for i := 0; i < k; i++ {
		init[i] = infInit(g.N(), i*7%g.N())
	}
	batch, err := congest.NewBatchRelaxer(g, p, s).Relax(weights, init)
	if err != nil {
		t.Fatal(err)
	}
	if batch.EffectiveRounds > batch.Budget {
		t.Fatalf("batched quiet-point %d exceeds the converged budget %d", batch.EffectiveRounds, batch.Budget)
	}
	relaxer := congest.NewBatchRelaxer(g, p, s)
	seqRounds := 0
	for i := 0; i < k; i++ {
		seq, err := relaxer.Relax(weights, init[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		seqRounds += seq.EffectiveRounds
		for v := 0; v < g.N(); v++ {
			if batch.Dist[i][v] != seq.Dist[0][v] {
				t.Fatalf("source %d vertex %d: batched %v vs sequential %v", i, v, batch.Dist[i][v], seq.Dist[0][v])
			}
		}
	}
	// The pipelining win: k tags through one batched phase settle in
	// budget+k-ish rounds, far below the k sequential quiet-points.
	if batch.EffectiveRounds*2 >= seqRounds {
		t.Fatalf("batched phase took %d rounds vs %d sequential: no pipelining win", batch.EffectiveRounds, seqRounds)
	}
}

func TestBatchRelaxRejectsMalformedInput(t *testing.T) {
	g, p, s := wheelTriple(t, 33, 4, 9)
	r := congest.NewBatchRelaxer(g, p, s)
	weights := edgeWeights(g)
	if _, err := r.Relax(weights, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := r.Relax(weights[:1], [][]float64{infInit(g.N(), 0)}); err == nil {
		t.Error("short weight vector accepted")
	}
	if _, err := r.Relax(weights, [][]float64{make([]float64, 3)}); err == nil {
		t.Error("short init vector accepted")
	}
	bad := append([]float64(nil), weights...)
	bad[0] = math.NaN()
	if _, err := r.Relax(bad, [][]float64{infInit(g.N(), 0)}); err == nil {
		t.Error("NaN weight accepted")
	}
	bad[0] = -1
	if _, err := r.Relax(bad, [][]float64{infInit(g.N(), 0)}); err == nil {
		t.Error("negative weight accepted")
	}
	// A NaN initial distance passes every improvement test, so no attempt
	// can match the fixed point: it must fail up front, not as a retryable
	// exhaustion of the doubling budget.
	nanInit := infInit(g.N(), 0)
	nanInit[5] = math.NaN()
	if _, err := r.Relax(weights, [][]float64{infInit(g.N(), 1), nanInit}); err == nil || congest.Retryable(err) {
		t.Errorf("NaN initial distance: got %v, want a non-retryable error", err)
	}
}

// BenchmarkBatchRelax times one relaxation phase from scratch on the
// serving workloads' instance — a 16×16 grid with one part per row and
// the cap search's shortcut over the self-setup tree — single-source
// (k=1) and batched, and reports the engine rounds per phase and the cost
// per node-round.
func BenchmarkBatchRelax(b *testing.B) {
	g := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.GridCSR(16, 16), xrand.New(2018))).Graph()
	setup, err := pipeline.SelfSetup(g, false)
	if err != nil {
		b.Fatal(err)
	}
	p, err := partition.GridRows(g, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	search, err := congest.SearchCap(g, setup.Tree, p, congest.SearchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	relaxer := congest.NewBatchRelaxer(g, p, search.S)
	weights := edgeWeights(g)
	n := g.N()
	for _, k := range []int{1, 8, 64} {
		init := make([][]float64, k)
		for i := range init {
			init[i] = infInit(n, i*n/k)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			ops, rounds := 0, 0
			for b.Loop() {
				res, err := relaxer.Relax(weights, init)
				if err != nil {
					b.Fatal(err)
				}
				ops++
				rounds += res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(ops), "rounds/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*rounds), "ns/node-round")
		})
	}
}
