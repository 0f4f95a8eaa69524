// Sensor field with a base station: the paper's apex scenario (§2.3.2).
//
// A planar grid of sensors has a single base station (apex) linked to every
// sensor, collapsing the network diameter to 2. Long sensor strips
// (deployment corridors) each need to agree on their minimum battery level —
// exactly the part-wise aggregation subproblem of the shortcut framework.
// Naive in-part flooding needs Θ(strip length) rounds; apex-aware
// tree-restricted shortcuts (Theorem 8) finish in O(quality) rounds.
package main

import (
	"fmt"
	"log"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

func main() {
	const rows, cols = 8, 48
	rng := xrand.New(7)
	a := gen.PlanarWithApex(rows, cols, rng)
	if err := a.Validate(); err != nil {
		log.Fatal(err)
	}
	apex := a.Apices[0]
	tr, err := graph.BFSTree(a.G, apex)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensor field: %dx%d grid + base station, diameter=%d, tree height=%d\n",
		rows, cols, graph.Diameter(a.G), tr.Height())

	// Corridors: each grid row is one strip of sensors.
	sets := make([][]int, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sets[r] = append(sets[r], r*cols+c)
		}
	}
	parts, err := partition.New(a.G, sets)
	if err != nil {
		log.Fatal(err)
	}

	// Battery levels (permille), minimum per corridor wanted.
	levels := make([]uint64, a.G.N())
	for v := range levels {
		levels[v] = uint64(300 + (v*7919)%700)
	}

	// Naive: no shortcuts, flood inside each strip.
	empty := shortcut.Empty(a.G, tr, parts)
	rNaive, err := congest.AggregateMin(a.G, parts, empty, levels)
	if err != nil {
		log.Fatal(err)
	}

	// Apex-aware shortcuts (Theorem 8 construction).
	res, err := core.AlmostEmbeddableShortcut(a.G, tr, parts, a)
	if err != nil {
		log.Fatal(err)
	}
	rSmart, err := congest.AggregateMin(a.G, parts, res.S, levels)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("corridor minima:")
	for i := 0; i < parts.NumParts(); i++ {
		fmt.Printf(" %d", rSmart.Mins[i])
		if rSmart.Mins[i] != rNaive.Mins[i] {
			log.Fatalf("disagreement on corridor %d", i)
		}
	}
	fmt.Println()
	fmt.Printf("naive flooding:      %4d rounds\n", rNaive.EffectiveRounds)
	fmt.Printf("apex-aware shortcut: %4d rounds  (quality=%d, blocks=%d, congestion=%d)\n",
		rSmart.EffectiveRounds, res.M.Quality, res.M.MaxBlocks, res.M.Congestion)
	if rSmart.EffectiveRounds >= rNaive.EffectiveRounds {
		log.Fatal("expected the shortcut-assisted aggregation to win")
	}
}
