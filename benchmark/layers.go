package main

import "slices"

// perLayer is what the traced run prints: BENCHMARK.json's per_layer.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"graph.generate_s", "s"}, {"graph.materialize_s", "s"}, {"graph.diameter_s", "s"},
		{"graph.csr_mb", "MB"}, {"graph.verify_s", "s"},
		{"congest.flood_s", "s"}, {"congest.flood_rounds", "rounds"}, {"congest.flood_messages", "count"},
		{"congest.ns_per_message", "ns"}, {"congest.round_ms_p50", "ms"}, {"congest.round_ms_max", "ms"},
		{"pipeline.wall_s", "s"}, {"pipeline.stage_coverage", "fraction"},
		{"pipeline.rounds_sim", "rounds"}, {"pipeline.rounds_chg", "rounds"},
		{"pipeline.quality", "count"}, {"pipeline.cap", "count"},
	}
	for _, st := range stageNames {
		p := "pipeline." + st
		specs = append(specs, metricSpec{p + ".wall_s", "s"}, metricSpec{p + ".alloc_mb", "MB"},
			metricSpec{p + ".rounds_sim", "rounds"}, metricSpec{p + ".rounds_chg", "rounds"},
			metricSpec{p + ".messages", "count"})
	}
	return append(specs,
		metricSpec{"pipeline.decompose.phases", "count"}, metricSpec{"pipeline.search.guesses", "count"},
		metricSpec{"pipeline.mst.phases", "count"}, metricSpec{"pipeline.mst.self_s", "s"},
		metricSpec{"shortcut.provide.calls", "count"}, metricSpec{"shortcut.provide.wall_s", "s"},
		metricSpec{"shortcut.provide.alloc_mb", "MB"}, metricSpec{"shortcut.provide.rounds_sim", "rounds"},
		metricSpec{"shortcut.provide.rounds_chg", "rounds"},
		metricSpec{"shortcut.repair.calls", "count"}, metricSpec{"shortcut.repair.refused", "count"},
		metricSpec{"shortcut.repair.patched", "count"}, metricSpec{"shortcut.repair.ms_p50", "ms"},
		metricSpec{"shortcut.repair.ms_max", "ms"}, metricSpec{"shortcut.repair.dirty_vertices", "count"},
		metricSpec{"shortcut.repair.rounds", "rounds"},
		metricSpec{"query.window.calls", "count"},
		metricSpec{"query.hit.calls", "count"}, metricSpec{"query.hit.ns_p50", "ns"},
		metricSpec{"query.hit.ns_p99", "ns"}, metricSpec{"query.hit.wall_s", "s"},
		metricSpec{"query.warm.calls", "count"}, metricSpec{"query.warm.sources", "count"},
		metricSpec{"query.warm.ms_p50", "ms"}, metricSpec{"query.warm.ms_max", "ms"},
		metricSpec{"query.warm.wall_s", "s"}, metricSpec{"query.warm.rounds_sim", "rounds"},
		metricSpec{"query.warm.alloc_mb", "MB"}, metricSpec{"query.invalidations", "count"},
		metricSpec{"query.hit_rate", "fraction"}, metricSpec{"query.rounds_per_query", "rounds"},
		metricSpec{"latency_p90_ms", "ms"}, metricSpec{"latency_p99_ms", "ms"},
		metricSpec{"trace_overhead", "ratio"}, metricSpec{"alloc_mb_per_op", "MB"},
		metricSpec{"machine.probe_ms", "ms"},
	)
}()

const mb = 1 << 20

// layerMetrics derives every per-layer metric from the traced run's spans;
// only the tail latencies, trace_overhead and alloc_mb_per_op come from the
// loop's own timings of its untraced units, and machine.probe_ms from the
// host probe. Layer timings are raw, not scaled by the probe. Pipeline
// figures are per pipeline run, the median over the traced runs; set-up
// figures are the median over the set-ups; serving figures are
// totals or quantiles over the traced windows and repairs. A layer the
// workload does not exercise reads 0. Self time is a span's duration minus
// its children's.
func layerMetrics(spans []span, rep *report) map[string]metric {
	children := map[int][]*span{}
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
	}
	v := map[string]float64{}
	setup := map[string][]float64{}
	perRun := map[string][]float64{}
	flood, hit := &histogram{}, &histogram{}
	var warmMS, repairMS []float64
	var queries, hits, warmRounds float64
	for i := range spans {
		s := &spans[i]
		d, a := float64(s.durNS()), s.Attrs
		switch s.Name {
		case "graph.generate", "graph.materialize", "graph.diameter":
			setup[s.Name+"_s"] = append(setup[s.Name+"_s"], d/1e9)
			if s.Name == "graph.generate" {
				v["graph.csr_mb"] = a["csr_bytes"] / mb
			}
		case "graph.verify":
			v["graph.verify_s"] += d / 1e9
		case "pipeline":
			for k, x := range pipelineRunMetrics(s, children, flood, v) {
				perRun[k] = append(perRun[k], x)
			}
		case "query.window":
			v["query.window.calls"]++
			v["query.hit.calls"] += a["hit_calls"]
			v["query.hit.wall_s"] += a["hit_ns"] / 1e9
			hit.addSparse(s.Hist)
			queries += a["queries"]
			hits += a["hits"]
		case "query.warm":
			v["query.warm.calls"]++
			v["query.warm.sources"] += a["sources"]
			v["query.warm.wall_s"] += d / 1e9
			v["query.warm.rounds_sim"] += a["rounds_sim"]
			v["query.warm.alloc_mb"] += a["alloc_bytes"] / mb
			warmRounds += a["rounds_sim"] + a["rounds_chg"]
			warmMS = append(warmMS, d/1e6)
		case "shortcut.repair":
			v["shortcut.repair.calls"]++
			v["shortcut.repair.refused"] += a["refused"]
			v["shortcut.repair.patched"] += a["patched"]
			v["shortcut.repair.dirty_vertices"] += a["dirty_vertices"]
			v["shortcut.repair.rounds"] += a["rounds"]
			v["query.invalidations"] += a["invalidations"]
			repairMS = append(repairMS, d/1e6)
		}
	}
	for k, xs := range setup {
		v[k] = median(xs)
	}
	for k, xs := range perRun {
		v[k] = median(xs)
	}
	v["congest.round_ms_p50"] = flood.quantile(0.5) / 1e6
	v["query.hit.ns_p50"] = hit.quantile(0.5)
	v["query.hit.ns_p99"] = hit.quantile(0.99)
	v["query.warm.ms_p50"] = median(warmMS)
	v["query.warm.ms_max"] = slices.Max(append(warmMS, 0))
	v["shortcut.repair.ms_p50"] = median(repairMS)
	v["shortcut.repair.ms_max"] = slices.Max(append(repairMS, 0))
	if queries > 0 {
		v["query.hit_rate"] = hits / queries
		v["query.rounds_per_query"] = warmRounds / queries
	}
	v["latency_p90_ms"] = rankQuantile(rep.latencyNS, 0.90) / 1e6
	v["latency_p99_ms"] = rankQuantile(rep.latencyNS, 0.99) / 1e6
	if len(rep.plainNS) > 0 && len(rep.tracedNS) > 0 {
		v["trace_overhead"] = median(rep.tracedNS) / median(rep.plainNS)
	}
	if rep.plainOps > 0 {
		v["alloc_mb_per_op"] = float64(rep.plainAlloc) / float64(rep.plainOps) / mb
	}
	v["machine.probe_ms"] = medianNS(rep.probe.samples) / 1e6
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// pipelineRunMetrics reads one traced pipeline run: its stage spans, the
// shortcut.provide spans under the MST stage and the congest.flood spans
// under the simulated bootstrap stages. Flood round times fold into flood;
// the slowest round so far goes straight into v.
func pipelineRunMetrics(root *span, children map[int][]*span, flood *histogram, v map[string]float64) map[string]float64 {
	m := map[string]float64{}
	total := float64(root.durNS())
	m["pipeline.wall_s"] = total / 1e9
	m["pipeline.quality"] = root.Attrs["quality"]
	m["pipeline.cap"] = root.Attrs["cap"]
	var covered float64
	for _, st := range children[root.ID] {
		d, a := float64(st.durNS()), st.Attrs
		covered += d
		m[st.Name+".wall_s"] = d / 1e9
		m[st.Name+".alloc_mb"] = a["alloc_bytes"] / mb
		m[st.Name+".rounds_sim"] = a["rounds_sim"]
		m[st.Name+".rounds_chg"] = a["rounds_chg"]
		m[st.Name+".messages"] = a["messages"]
		m["pipeline.rounds_sim"] += a["rounds_sim"]
		m["pipeline.rounds_chg"] += a["rounds_chg"]
		switch st.Name {
		case "pipeline.decompose", "pipeline.mst":
			m[st.Name+".phases"] = a["phases"]
		case "pipeline.search":
			m[st.Name+".guesses"] = a["guesses"]
		}
		var provided float64
		for _, c := range children[st.ID] {
			cd, ca := float64(c.durNS()), c.Attrs
			switch c.Name {
			case "shortcut.provide":
				provided += cd
				m["shortcut.provide.calls"]++
				m["shortcut.provide.wall_s"] += cd / 1e9
				m["shortcut.provide.alloc_mb"] += ca["alloc_bytes"] / mb
				m["shortcut.provide.rounds_sim"] += ca["rounds_sim"]
				m["shortcut.provide.rounds_chg"] += ca["rounds_chg"]
			case "congest.flood":
				m["congest.flood_s"] += cd / 1e9
				m["congest.flood_rounds"] += ca["rounds"]
				m["congest.flood_messages"] += ca["messages"]
				flood.addSparse(c.Hist)
				v["congest.round_ms_max"] = max(v["congest.round_ms_max"], ca["hist_max_ns"]/1e6)
			}
		}
		if st.Name == "pipeline.mst" {
			m["pipeline.mst.self_s"] = (d - provided) / 1e9
		}
	}
	if total > 0 {
		m["pipeline.stage_coverage"] = covered / total
	}
	if m["congest.flood_messages"] > 0 {
		m["congest.ns_per_message"] = m["congest.flood_s"] * 1e9 / m["congest.flood_messages"]
	}
	return m
}
