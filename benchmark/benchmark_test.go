package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// The benchmark's stage driver must not drift from the shipped pipeline: at
// seed 2018 it reproduces experiments.ScalePipeline's leader, parts, cap,
// quality, MST and per-stage ledgers, on a grid (analytic) and a wheel
// chain (simulate).
func TestDriverMatchesScalePipeline(t *testing.T) {
	for _, tc := range []struct {
		family string
		n      int
		mode   experiments.ScaleMode
		build  func() *graph.CSR
	}{
		{"grid", 10_000, experiments.ScaleAnalytic, gridCSR(100)},
		{"chain", 1_000, experiments.ScaleSimulate, chainCSR(1_000/32, 31)},
	} {
		t.Run(tc.family, func(t *testing.T) {
			want, err := experiments.ScalePipeline(tc.family, tc.n, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			net, err := generate(tc.build, 2018, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runPipeline(net, tc.mode == experiments.ScaleSimulate, nil)
			if err != nil {
				t.Fatal(err)
			}
			if net.g.N() != want.N || net.g.M() != want.M || net.diameter != want.Diameter {
				t.Fatalf("input n=%d m=%d diam=%d, ScalePipeline n=%d m=%d diam=%d",
					net.g.N(), net.g.M(), net.diameter, want.N, want.M, want.Diameter)
			}
			if got.Leader != want.Leader || got.NumParts != want.Parts || got.Cap != want.Cap ||
				got.Quality != want.Quality || got.MSTPhases != want.MSTPhases ||
				len(got.MSTEdges) != want.MSTEdges || math.Abs(got.MSTWeight-want.MSTWeight) > 1e-9 {
				t.Fatalf("driver leader=%d parts=%d cap=%d quality=%d phases=%d edges=%d weight=%v\nScalePipeline %+v",
					got.Leader, got.NumParts, got.Cap, got.Quality, got.MSTPhases, len(got.MSTEdges), got.MSTWeight, want)
			}
			wantIDs, _ := net.c.MST()
			for i, id := range wantIDs {
				if got.MSTEdges[i] != int(id) {
					t.Fatalf("MST edge %d: driver %d, Kruskal %d", i, got.MSTEdges[i], id)
				}
			}
			for i, st := range want.Stages[1:] { // Stages[0] is generation
				l := got.Ledgers[i]
				if st.Name != stageNames[i] || st.Simulated != l.Simulated || st.Charged != l.Charged || st.Messages != l.Messages {
					t.Errorf("stage %s: driver %+v, ScalePipeline %s sim=%d chg=%d msgs=%d",
						stageNames[i], l, st.Name, st.Simulated, st.Charged, st.Messages)
				}
			}
		})
	}
}

// tinyWorkloads are the four workloads at sizes that run in a fraction of a
// second.
var tinyWorkloads = []struct {
	name string
	w    runner
}{
	{"grid-analytic", pipelineWorkload{build: gridCSR(24)}},
	{"chain-simulate", pipelineWorkload{build: chainCSR(6, 7), simulate: true}},
	{"serve-hot", serveWorkload{side: 12, window: 128, hot: 16, unitWindows: 2, sampleStride: 4}},
	{"serve-churn", serveWorkload{side: 12, window: 128, hot: 16, churn: true, unitWindows: 8, sampleStride: 1}},
}

// isCount reports whether a per-layer metric counts work (and so must not
// depend on scheduling) rather than timing it.
func isCount(m metricSpec) bool {
	return m.unit == "count" || m.unit == "rounds" || m.unit == "fraction" && m.name != "pipeline.stage_coverage"
}

// Every workload runs clean at tiny sizes, every count it reports is the
// same at GOMAXPROCS 1 and 2, the answers' checksum repeats, and the trace
// holds the attribution properties the per-layer metrics rely on.
func TestSmokeCountsAcrossGOMAXPROCS(t *testing.T) {
	for _, tw := range tinyWorkloads {
		t.Run(tw.name, func(t *testing.T) {
			var base map[string]metric
			var baseSum uint64
			var lastSpans []span
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				cfg := runConfig{seed: 7, minUnits: 4, maxUnits: 4, tr: newTracer()}
				rep, err := tw.w.run(cfg)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("GOMAXPROCS=%d: %d of %d failed: %v", procs, rep.failed, rep.attempted, rep.failures)
				}
				got := layerMetrics(cfg.tr.spans, rep)
				lastSpans = cfg.tr.spans
				if base == nil {
					base, baseSum = got, rep.checksum
					continue
				}
				if rep.checksum != baseSum {
					t.Errorf("answer checksum %016x at GOMAXPROCS=%d, %016x at 1", rep.checksum, procs, baseSum)
				}
				for _, m := range perLayer {
					if isCount(m) && got[m.name] != base[m.name] {
						t.Errorf("%s = %v at GOMAXPROCS=%d, %v at 1", m.name, got[m.name].Value, procs, base[m.name].Value)
					}
				}
			}
			switch tw.name {
			case "grid-analytic":
				for _, name := range []string{"congest.flood_s", "congest.flood_messages", "pipeline.rounds_sim"} {
					if base[name].Value != 0 {
						t.Errorf("analytic run reports %s = %v, want 0", name, base[name].Value)
					}
				}
			case "serve-hot":
				if base["query.warm.calls"].Value != 0 || base["query.hit_rate"].Value != 1 {
					t.Errorf("hot set warmed in set-up, yet the timed phase warmed %v times at hit rate %v",
						base["query.warm.calls"].Value, base["query.hit_rate"].Value)
				}
			case "serve-churn":
				if base["query.warm.calls"].Value == 0 || base["query.invalidations"].Value == 0 {
					t.Errorf("churn run never invalidated (%v) or warmed (%v)",
						base["query.invalidations"].Value, base["query.warm.calls"].Value)
				}
				if n := coldWarms(lastSpans); n != 0 {
					t.Errorf("%d warms in windows before a unit's first churn step; set-up should have warmed every source", n)
				}
			}
			if _, ok := tw.w.(pipelineWorkload); ok {
				if c := base["pipeline.stage_coverage"].Value; c < 0.9 {
					t.Errorf("stage spans cover %.3f of the pipeline's wall-clock, want ≥ 0.9", c)
				}
				if base["shortcut.provide.calls"].Value == 0 {
					t.Error("no shortcut.provide spans under the MST stage")
				}
			}
		})
	}
}

// The churn step counts a failed Repair as refused only when disconnects
// says the delete cuts the graph, so disconnects must agree with
// connectivity, and Repair must refuse exactly those deletes. The graph is a
// 4-cycle 0-1-2-3 with a pendant path 0-4-5: its tree edges on the cycle
// have replacements, the two pendant edges do not.
func TestDisconnectsMatchesRepair(t *testing.T) {
	build := func() (*graph.Graph, *graph.Tree, *partition.Parts) {
		g := graph.New(6)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {4, 5}} {
			g.AddEdge(e[0], e[1], 1)
		}
		tree, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.New(g, [][]int{{0, 1}, {2, 3}, {4, 5}})
		if err != nil {
			t.Fatal(err)
		}
		return g, tree, p
	}
	g0, t0, _ := build()
	cuts := 0
	for id := 0; id < g0.M(); id++ {
		if !t0.IsTreeEdge(id) {
			continue
		}
		h := g0.Clone()
		h.RemoveEdge(id)
		want := !graph.IsConnected(h)
		if got := disconnects(g0, t0, id); got != want {
			t.Errorf("edge %d: disconnects = %v, connectivity says %v", id, got, want)
		}
		g, tree, p := build()
		m, err := shortcut.Maintain(g, tree, p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := m.Repair(shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id})
		if refused := err != nil && rr == nil; refused != want {
			t.Errorf("edge %d: Repair refused = %v (%v), want %v", id, refused, err, want)
		}
		if want {
			cuts++
		}
	}
	if cuts != 2 {
		t.Errorf("%d disconnecting tree edges, want the 2 pendant edges", cuts)
	}
}

// coldWarms counts the query.warm spans under windows that precede their
// unit's first churn step.
func coldWarms(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Name == "query.warm" && spans[s.Parent-1].Attrs["after_churn"] == 0 {
			n++
		}
	}
	return n
}

// The end-to-end metrics are never 0: a zero would make the bound
// meaningless.
func TestEndToEndMetricsNonZero(t *testing.T) {
	for _, tw := range tinyWorkloads {
		rep, err := tw.w.run(runConfig{seed: 3, minUnits: 2, maxUnits: 2})
		if err != nil {
			t.Fatalf("%s: %v", tw.name, err)
		}
		got, err := endToEndMetrics(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			if v := got[m.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v", tw.name, m.name, v)
			}
		}
	}
}

// BENCHMARK.json must describe exactly what the program prints.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("spec workloads %v, program %v", names, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("spec lists %d/%d metrics, program prints %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
}

// quartiles must read like Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{100, 102, 99, 101, 100}, false, "ok"},
		{[]float64{115, 116, 114, 115, 117}, false, "worse"},
		{[]float64{115, 116, 114, 115, 117}, true, "better"},
		{[]float64{60, 140, 100, 80, 120}, false, "unresolved"},
		{[]float64{80, 50, 60, 70, 90}, false, "better"},
	} {
		if got := judge(base, tc.b, 0.1, tc.higher); got != tc.want {
			t.Errorf("judge(%v, higher=%v) = %s, want %s", tc.b, tc.higher, got, tc.want)
		}
	}
}
