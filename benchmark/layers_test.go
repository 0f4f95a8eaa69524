package main

// Layer microbenchmarks, for measuring one layer while working on it:
//
//	go test -run '^$' -bench . -count 5 -benchmem          (from benchmark/)
//	go test -run '^$' -bench . -count 5 -benchmem -short   (skips 10⁶ nodes)
//
// The end-to-end benchmark (main.go) remains the yardstick a change is
// judged by; these attribute its numbers to the engine and the oracle.

import (
	"fmt"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkFlood measures engine delivery through the two bootstrap floods
// on the round-driven scheduler, on the grid (diameter Θ(√n)) and the wheel
// (diameter 2, one hub of degree n-1).
func BenchmarkFlood(b *testing.B) {
	families := []struct {
		name  string
		build func(n int) *graph.CSR
	}{
		{"grid", func(n int) *graph.CSR {
			side := 1
			for side*side < n {
				side++
			}
			return gen.GridCSR(side, side)
		}},
		{"wheel", gen.WheelCSR},
	}
	for _, fam := range families {
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			var g *graph.Graph
			var bound int
			for _, proto := range []string{"elect", "bfs"} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", proto, fam.name, n), func(b *testing.B) {
					if n >= 1_000_000 && testing.Short() {
						b.Skip("10⁶ nodes skipped under -short")
					}
					if g == nil {
						c := fam.build(n)
						g, bound = c.Graph(), 2*c.DiameterApprox()+2
					}
					var messages, nodeRounds float64
					b.ReportAllocs()
					for b.Loop() {
						var st congest.Stats
						var err error
						if proto == "elect" {
							_, st, err = congest.LeaderElectSync(g, bound, congest.Options{})
						} else {
							_, _, st, err = congest.DistributedBFSSync(g, 0, bound, congest.Options{})
						}
						if err != nil {
							b.Fatal(err)
						}
						messages += float64(st.Messages)
						nodeRounds += float64(st.Rounds) * float64(g.N())
					}
					ns := float64(b.Elapsed().Nanoseconds())
					b.ReportMetric(ns/messages, "ns/message")
					b.ReportMetric(ns/nodeRounds, "ns/node-round")
				})
			}
		}
	}
}

// benchServer is the serving workloads' network (grid, row parts, analytic
// construction) with its hot set cached.
func benchServer(b *testing.B) *server {
	b.Helper()
	s, err := serveWorkload{side: serveSide, window: 1024, hot: serveHot}.setup(2018, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

var sinkDist float64

// BenchmarkOracleDistCached is the serving hit path: one read-locked map
// probe and a vector index.
func BenchmarkOracleDistCached(b *testing.B) {
	s := benchServer(b)
	if _, _, _, err := s.o.Warm([]int{0}); err != nil {
		b.Fatal(err)
	}
	n := s.net.g.N()
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		d, ok := s.o.DistCached(0, i%n)
		if !ok {
			b.Fatal("source 0 left the cache")
		}
		sinkDist += d
		i++
	}
}

// BenchmarkOracleWarm is the miss path: one batched k-source ApproxBatch
// run on the engine, from an empty cache.
func BenchmarkOracleWarm(b *testing.B) {
	s := benchServer(b)
	n := s.net.g.N()
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			srcs := make([]int, k)
			for i := range srcs {
				srcs[i] = i * n / k
			}
			rounds := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.o.Invalidate()
				b.StartTimer()
				_, computed, cost, err := s.o.Warm(srcs)
				if err != nil || computed != k {
					b.Fatalf("warm computed %d of %d sources: %v", computed, k, err)
				}
				rounds += cost.Total()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/source")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
		})
	}
}
