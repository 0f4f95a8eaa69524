package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/tw"
)

// familyPoint is one instance of the three-family sweep E13, E14, E15 and
// E18 share: grids with row parts, wheels (cycle + apex) with rim-arc
// parts, and K5-minor-free clique-sum chains with Voronoi parts.
type familyPoint struct {
	family string
	g      *graph.Graph
	p      *partition.Parts
	// rng is the point RNG, left just past the instance's own draws.
	rng *rand.Rand
	// witness builds the BFS tree and the witness construction the
	// generator knows for this instance: the cotree treewidth witness on
	// grids, the apex-aware almost-embeddable witness on wheels (tree
	// rooted at the apex), the Theorem 6 excluded-minor witness on chains.
	// It draws nothing from rng.
	witness func() (*graph.Tree, *shortcut.Shortcut)
}

// forEachFamily evaluates fn over the sweep's grids, then wheels, then
// chains, each point built from its own pointRNG stream, and returns the
// rows in that order.
func forEachFamily(gridSides, wheelRims, chainBags []int, seed int64, fn func(f familyPoint) row) []row {
	ng, nw := len(gridSides), len(wheelRims)
	return forEachPoint(ng+nw+len(chainBags), func(i int) row {
		rng := pointRNG(seed, i)
		switch {
		case i < ng:
			s := gridSides[i]
			e := gen.Grid(s, s)
			p, err := partition.GridRows(e.G, s, s)
			if err != nil {
				panic(err)
			}
			return fn(familyPoint{"grid", e.G, p, rng, func() (*graph.Tree, *shortcut.Shortcut) {
				tr, err := graph.BFSTree(e.G, 0)
				if err != nil {
					panic(err)
				}
				d, err := tw.FromEmbeddingByCotree(e.Emb, tr)
				if err != nil {
					panic(err)
				}
				res, err := shortcut.FromTreewidth(e.G, tr, p, d)
				if err != nil {
					panic(err)
				}
				return tr, res.S
			}})
		case i < ng+nw:
			a := gen.CycleWithApex(wheelRims[i-ng], rng)
			p, err := partition.RimArcs(a.G, 8)
			if err != nil {
				panic(err)
			}
			return fn(familyPoint{"wheel", a.G, p, rng, func() (*graph.Tree, *shortcut.Shortcut) {
				tr, err := graph.BFSTree(a.G, a.Apices[0])
				if err != nil {
					panic(err)
				}
				res, err := core.AlmostEmbeddableShortcut(a.G, tr, p, a)
				if err != nil {
					panic(err)
				}
				return tr, res.S
			}})
		default:
			nb := chainBags[i-ng-nw]
			pieces := make([]*gen.Piece, nb)
			for j := range pieces {
				pieces[j] = gen.ApollonianPiece(18+rng.Intn(8), rng)
			}
			cs := gen.CliqueSum(pieces, 3, rng)
			p, err := partition.Voronoi(cs.G, 3*nb, rng)
			if err != nil {
				panic(err)
			}
			return fn(familyPoint{"k5free", cs.G, p, rng, func() (*graph.Tree, *shortcut.Shortcut) {
				tr, err := graph.BFSTree(cs.G, 0)
				if err != nil {
					panic(err)
				}
				res, err := core.ExcludedMinorShortcut(cs.G, tr, p, witness(cs))
				if err != nil {
					panic(err)
				}
				return tr, res.S
			}})
		}
	})
}
