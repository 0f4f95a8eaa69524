// graphgen generates the reproduction's graph families, validates their
// structural witnesses, and prints summary statistics — a quick way to
// inspect what the experiments run on. With -scale it instead drives the
// full zero-witness pipeline at scale (generate → elect → BFS → decompose
// → cap search → construct → MST) and prints the per-stage table, then the
// process's peak resident set where /proc/self/status reports it.
//
// Usage:
//
//	graphgen -family grid|torus|apollonian|outerplanar|ktree|cliquesum|almostembed|lowerbound|wheel
//	         [-n N] [-k K] [-seed S]
//	graphgen -scale -family grid|wheel|chain [-n N] [-mode analytic|hybrid|simulate]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func main() {
	family := flag.String("family", "grid", "graph family to generate")
	n := flag.Int("n", 100, "approximate size parameter")
	k := flag.Int("k", 3, "k parameter (treewidth / clique-sum order / vortex depth)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	scale := flag.Bool("scale", false, "run the zero-witness pipeline at scale instead of describing the graph")
	mode := flag.String("mode", "hybrid", "scale pipeline mode: analytic, hybrid, or simulate")
	flag.Parse()
	if *scale {
		res, err := experiments.ScalePipeline(*family, *n, experiments.ScaleMode(*mode))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res)
		if mb, ok := peakRSSMB(); ok {
			fmt.Printf("peak_rss=%.1fMB\n", mb)
		}
		return
	}
	rng := xrand.New(*seed)

	describe := func(g *graph.Graph, witness string) {
		// The exact all-pairs sweep is Θ(n·m); past experiment sizes only the
		// double-sweep estimate is affordable, so the exact call must be gated,
		// not merely overwritten.
		var d int
		if g.N() <= 4000 {
			d = graph.Diameter(g)
		} else {
			d = graph.DiameterApprox(g)
		}
		fmt.Printf("family=%s n=%d m=%d diameter=%d connected=%v\n",
			*family, g.N(), g.M(), d, graph.IsConnected(g))
		if witness != "" {
			fmt.Printf("witness: %s\n", witness)
		}
	}

	side := 1
	for side*side < *n {
		side++
	}
	switch *family {
	case "grid":
		e := gen.Grid(side, side)
		describe(e.G, fmt.Sprintf("planar embedding, genus=%d (validated)", e.Emb.Genus()))
	case "torus":
		e := gen.Torus(side, side)
		describe(e.G, fmt.Sprintf("toroidal embedding, genus=%d (validated)", e.Emb.Genus()))
	case "apollonian":
		a := gen.NewApollonian(*n, rng)
		d := gen.ApollonianDecomposition(a)
		describe(a.G, fmt.Sprintf("planar embedding genus=%d, tree decomposition width=%d (both validated)",
			a.EnsureEmbedding().Genus(), d.Width()))
	case "outerplanar":
		e := gen.Outerplanar(*n, *n/3, rng)
		describe(e.G, fmt.Sprintf("outerplanar embedding genus=%d, K4-minor-free=%v",
			e.Emb.Genus(), graph.IsSeriesParallelReducible(e.G)))
	case "ktree":
		kt := gen.KTree(*n, *k, rng)
		if err := kt.Decomp.Validate(); err != nil {
			log.Fatal(err)
		}
		describe(kt.G, fmt.Sprintf("tree decomposition width=%d over %d bags (validated)",
			kt.Decomp.Width(), kt.Decomp.NumBags()))
	case "cliquesum":
		bags := *n / 20
		if bags < 2 {
			bags = 2
		}
		pieces := make([]*gen.Piece, bags)
		for i := range pieces {
			pieces[i] = gen.ApollonianPiece(20, rng)
		}
		cs := gen.CliqueSum(pieces, *k, rng)
		if err := cs.CST.Validate(); err != nil {
			log.Fatal(err)
		}
		found, _ := graph.HasCliqueMinorWitness(cs.G, 5, 200, rng)
		describe(cs.G, fmt.Sprintf("%d-clique-sum of %d planar bags (Definition 8 validated); K5 minor found by search: %v",
			*k, bags, found))
	case "almostembed":
		a := gen.AlmostEmbeddableGraph(gen.AlmostEmbedOpts{
			Base:        gen.Grid(side, side),
			NumVortices: 1,
			VortexDepth: *k,
			VortexNodes: 4,
			NumApices:   1,
			ApexDegree:  0,
		}, rng)
		if err := a.Validate(); err != nil {
			log.Fatal(err)
		}
		describe(a.G, fmt.Sprintf("(1,0,%d,1)-almost-embeddable (Definition 5 validated)", *k))
	case "lowerbound":
		p := 1
		for p*p < *n {
			p++
		}
		lb := gen.LowerBound(p, p)
		describe(lb.G, fmt.Sprintf("[SHK+12] hard instance: %d paths x %d columns", p, p))
	case "wheel":
		e := gen.Wheel(*n)
		describe(e.G, fmt.Sprintf("planar embedding genus=%d; the §2.3.2 apex example", e.Emb.Genus()))
	default:
		log.Fatalf("unknown family %q", *family)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB (2^20
// bytes) from /proc/self/status, and reports false where that file or the
// line is missing.
func peakRSSMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
