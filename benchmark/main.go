// Command perfbench is the repository's end-to-end benchmark: four
// workloads drive the system through its public packages, time each call
// from outside, check every output, and print one JSON result line. See
// README.md for the workloads, the metrics and the trace format.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench set -runs 5 -out a.jsonl
//	perfbench compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

type runner interface {
	run(cfg runConfig) (*report, error)
}

// workloads, in the order set runs them. Sizes are chosen so one loop unit
// (a pipeline, or a server and the windows it serves) is a small fraction of
// a run and every timing is a median over many samples; README.md gives the
// reasons for each workload.
var workloads = []struct {
	name string
	w    runner
}{
	{"grid-analytic", pipelineWorkload{build: gridCSR(160), simulate: false}},
	{"chain-simulate", pipelineWorkload{build: chainCSR(20, 31), simulate: true}},
	{"serve-hot", serveWorkload{side: serveSide, window: 1024, hot: serveHot, unitWindows: 1024, sampleStride: 256}},
	{"serve-churn", serveWorkload{side: serveSide, window: 1024, hot: serveHot, churn: true, unitWindows: 16, sampleStride: 16}},
}

func lookup(name string) runner {
	for _, w := range workloads {
		if w.name == name {
			return w.w
		}
	}
	return nil
}

type metricSpec struct{ name, unit string }

// endToEnd is what the untraced run prints: BENCHMARK.json's end_to_end.
// An operation is one elect → MST pipeline on the pipeline workloads and
// one query on the serving workloads.
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// runConfig is what a workload gets: its seed, the budget of its loop and
// the tracer (nil in the untraced end-to-end run). Every loop unit sets up
// its own instance, so minUnits is also the least number of set-ups.
type runConfig struct {
	seed               int64
	seconds            float64
	minUnits, maxUnits int // maxUnits 0: run until seconds are spent
	tr                 *tracer
}

func (c runConfig) more(u int, start time.Time) bool {
	if c.maxUnits > 0 && u >= c.maxUnits {
		return false
	}
	return u < c.minUnits || time.Since(start).Seconds() < c.seconds
}

// unitTracer is the tracer of loop unit u. The traced run traces odd units
// only, so it times traced against untraced units of the same run.
func (c runConfig) unitTracer(u int) *tracer {
	if u%2 == 1 {
		return c.tr
	}
	return nil
}

// allocMark reads TotalAlloc in the traced run; allocation is a per-layer
// metric, so the end-to-end run does not stop the world for it.
func (c runConfig) allocMark() uint64 {
	if c.tr == nil {
		return 0
	}
	return totalAlloc()
}

// report is what a workload measured and checked.
type report struct {
	attempted, failed, refused int
	failures                   []string
	setupNS                    []int64
	latencyNS                  []int64   // per operation of untraced units (sampled on the serving workloads)
	plainNS, tracedNS          []float64 // ns per operation of each loop unit, untraced and traced
	plainOps                   int       // operations, time and allocation of the untraced units
	plainTotalNS               int64
	plainAlloc                 uint64
	probe                      hostProbe // one sample before each loop unit
	checksum                   uint64
	summary                    string
}

func (r *report) fail(format string, args ...any) { r.failOps(1, format, args...) }

func (r *report) failOps(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// book records one loop unit's timed section of ops operations.
func (r *report) book(traced bool, ns int64, ops int, allocBytes uint64) {
	perOp := float64(ns) / float64(max(ops, 1))
	if traced {
		r.tracedNS = append(r.tracedNS, perOp)
		return
	}
	r.plainNS = append(r.plainNS, perOp)
	r.plainOps += ops
	r.plainTotalNS += ns
	r.plainAlloc += allocBytes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics computes the end-to-end metrics. Timings are scaled to the
// reference machine by the run's host probe (speed.go).
func endToEndMetrics(rep *report) (map[string]metric, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	f := rep.probe.scale()
	v := map[string]float64{
		"latency_p50_ms":   f * rankQuantile(rep.latencyNS, 0.50) / 1e6,
		"throughput_per_s": float64(rep.plainOps) / (float64(max(rep.plainTotalNS, 1)) / 1e9) / f,
		"setup_s":          f * medianNS(rep.setupNS) / 1e9,
		"peak_rss_mb":      rss,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "set":
			os.Exit(setMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 2018, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "wall-clock budget of the timed loop")
	traceFlag := fs.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "span JSONL of a traced run (default .bench_build/trace/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	if w == nil || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, minUnits: 5}
	if *traceFlag == 1 {
		cfg.tr = newTracer()
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var metrics map[string]metric
	if cfg.tr == nil {
		if metrics, err = endToEndMetrics(rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		metrics = layerMetrics(cfg.tr.spans, rep)
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", *name, *seed)
		}
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %s\n", *name, *seed, rep.summary)
	fmt.Fprintf(os.Stderr, "host probe: median %.3f ms over %d samples, timing scale %.4f\n",
		medianNS(rep.probe.samples)/1e6, len(rep.probe.samples), rep.probe.scale())
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
	}
	line, err := json.Marshal(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}
