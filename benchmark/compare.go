package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// setRecord is one line of a set file: one run's result line, keyed by
// workload and seed.
type setRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// setMain runs each workload -runs times, each run a fresh process with
// its own seed, and appends every result line to -out.
func setMain(args []string) int {
	fs := flag.NewFlagSet("perfbench set", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload")
	out := fs.String("out", "", "JSONL file the results are appended to (required)")
	only := fs.String("workloads", "", "comma-separated workloads (default all)")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.String("seconds", "30", "timed-loop budget of each run")
	trace := fs.String("trace", "0", "0 end-to-end runs, 1 traced runs")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench set -out FILE [-runs N] [-workloads a,b] [-seed S] [-seconds S] [-trace 0|1]")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench set: %v\n", err)
		return 1
	}
	f, err := os.OpenFile(*out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench set: %v\n", err)
		return 1
	}
	defer f.Close()
	traceN, _ := strconv.Atoi(*trace)
	for _, w := range workloads {
		if *only != "" && !slices.Contains(strings.Split(*only, ","), w.name) {
			continue
		}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", *seconds, "--trace", *trace)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench set: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := setRecord{Workload: w.name, Seed: seed, Trace: traceN}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench set: %s seed %d: result line: %v\n", w.name, seed, err)
				return 1
			}
			line, _ := json.Marshal(rec) // a decoded result always re-encodes
			if _, err := f.Write(append(line, '\n')); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench set: %v\n", err)
				return 1
			}
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench set: %v\n", err)
		return 1
	}
	return 0
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two set files (a = before, b = after) metric by
// metric and workload by workload. An end-to-end metric is "unresolved"
// when either side's quartile spread exceeds its bound (unless every run of
// b beats every run of a), "worse" or "better" when the medians differ by
// more than the bound, and "ok" otherwise. Per-layer metrics are listed
// without a verdict. The exit status is 1 when any metric is worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	a, errA := readSet(fs.Arg(0))
	b, errB := readSet(fs.Arg(1))
	if errA != nil || errB != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v %v\n", errA, errB)
		return 1
	}
	worse := false
	fmt.Printf("%-15s %-32s %3s %12s %12s %12s %3s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "n_a", "median_a", "q1_a", "q3_a", "n_b", "median_b", "q1_b", "q3_b", "delta%", "bound", "verdict")
	for _, w := range workloads {
		for _, name := range metricNames(a[w.name], b[w.name]) {
			xa, xb := a[w.name][name], b[w.name][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			q1a, q3a := quartiles(xa)
			q1b, q3b := quartiles(xb)
			delta := 0.0
			if ma != 0 {
				delta = (mb - ma) / ma
			}
			bound, verdict := "-", "-"
			for _, e := range spec.EndToEnd {
				if e.Name == name {
					bound = fmt.Sprintf("%.2f", e.Bound)
					verdict = judge(xa, xb, e.Bound, e.Better == "higher")
				}
			}
			worse = worse || verdict == "worse"
			fmt.Printf("%-15s %-32s %3d %12.6g %12.6g %12.6g %3d %12.6g %12.6g %12.6g %+8.2f %6s  %s\n",
				w.name, name, len(xa), ma, q1a, q3a, len(xb), mb, q1b, q3b, 100*delta, bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// judge gives the verdict on one end-to-end metric.
func judge(a, b []float64, bound float64, higherBetter bool) string {
	sign := 1.0 // positive change = worse
	if higherBetter {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	change := sign * (mb - ma) / ma
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, sign) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "ok"
}

// allBetter reports whether every run of b beats every run of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*x >= sign*y {
				return false
			}
		}
	}
	return true
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// readSet loads a set file as workload → metric → values.
func readSet(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var rec setRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Result.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// metricNames lists the metrics present in either set, end-to-end metrics
// first in their spec order, then the rest sorted.
func metricNames(a, b map[string][]float64) []string {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	var rest []string
	for _, set := range []map[string][]float64{a, b} {
		for name := range set {
			if !slices.Contains(names, name) && !slices.Contains(rest, name) {
				rest = append(rest, name)
			}
		}
	}
	slices.Sort(rest)
	return append(names, rest...)
}
