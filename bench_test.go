// Benchmark harness: BenchmarkTables regenerates every experiment table of
// the experiments registry, one sub-benchmark per table ID, and prints each
// table to the bench output, so `go test -bench=Tables -benchtime=1x`
// reproduces every table/figure stand-in of the paper in one run. The
// timings are end-to-end table cost, not layer numbers.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

const benchSeed = 2018 // PODC year; all experiments are deterministic in it

func BenchmarkTables(b *testing.B) {
	for _, r := range experiments.Runners() {
		b.Run(r.ID, func(b *testing.B) {
			var t *experiments.Table
			for i := 0; i < b.N; i++ {
				t = r.Run(benchSeed, false)
			}
			b.StopTimer()
			fmt.Println(t)
		})
	}
}

// BenchmarkScaleMillionPipeline runs the full zero-witness pipeline at 10⁶
// nodes and prints each run's per-stage wall-clock/rounds/traffic table —
// the scale record that make bench-baseline persists into
// BENCH_baseline.json. The grid (Θ(√n) diameter) runs analytic: its ~4000
// bootstrap-flood rounds over 10⁶ nodes are priced by the framework's
// charged ledger, since simulating them message-level costs minutes of
// wall-clock for no additional information (every node relays its distance
// ~dist(v) times under improvement gating). The wheel (diameter 2) runs
// hybrid: election and BFS execute message-level on the round-driven
// engine, streaming per-round bytes through the O(1)-state probe. Skipped
// under -short.
func BenchmarkScaleMillionPipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("10⁶-node pipeline skipped in -short")
	}
	for _, run := range []struct {
		family string
		mode   experiments.ScaleMode
	}{
		{"grid", experiments.ScaleAnalytic},
		{"wheel", experiments.ScaleHybrid},
	} {
		b.Run(run.family, func(b *testing.B) {
			var res *experiments.ScaleResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.ScalePipeline(run.family, 1_000_000, run.mode)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			fmt.Println(res)
			wall, sim, chg := res.Totals()
			b.ReportMetric(float64(wall)/1e6, "wall_ms")
			b.ReportMetric(float64(sim+chg), "rounds")
			b.ReportMetric(float64(res.Quality), "quality")
		})
	}
}
