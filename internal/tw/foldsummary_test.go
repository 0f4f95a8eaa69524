package tw

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestFoldSummaryMatchesMaterializedFold verifies the FoldSummary
// equivalence on which FromTreewidth relies: for random valid
// decompositions, the per-vertex minimum-depth repaired group and the
// folded width computed WITHOUT materializing bags must match FoldRooted +
// RepairCoherence on the materialized decomposition.
func TestFoldSummaryMatchesMaterializedFold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		d := randomCoherentDecomposition(rng)
		rooted := d.Root(0)
		f, minGroup, width, err := rooted.FoldSummary()
		if err != nil {
			t.Fatal(err)
		}
		// Materialized reference.
		prevDebug := debugValidate
		debugValidate = true
		matRooted, matFold, err := FoldRooted(rooted)
		debugValidate = prevDebug
		if err != nil {
			t.Fatal(err)
		}
		if got, want := width, matRooted.D.Width(); got != want {
			t.Fatalf("trial %d: summary width %d != materialized width %d", trial, got, want)
		}
		if got, want := f.Height(), matRooted.Height(); got != want {
			t.Fatalf("trial %d: summary height %d != materialized height %d", trial, got, want)
		}
		_ = matFold
		ref := minDepthBagOfVertex(matRooted)
		for v := range minGroup {
			if minGroup[v] != ref[v] {
				t.Fatalf("trial %d vertex %d: summary min group %d != materialized %d",
					trial, v, minGroup[v], ref[v])
			}
		}
	}
}

// minDepthBagOfVertex returns, for every vertex, the minimum-depth bag of
// r containing it (-1 for a vertex in no bag), in one sweep over the bags:
// the materialized side of the FoldSummary check.
func minDepthBagOfVertex(r *Rooted) []int32 {
	out := make([]int32, r.D.G.N())
	for i := range out {
		out[i] = -1
	}
	for bi, bag := range r.D.Bags {
		for _, v := range bag {
			if out[v] == -1 || r.Depth[bi] < r.Depth[out[v]] {
				out[v] = int32(bi)
			}
		}
	}
	return out
}

// randomCoherentDecomposition builds a random graph with a valid tree
// decomposition: a random k-tree-like elimination process where vertex v's
// bag is {v} plus a random subset of an earlier bag.
func randomCoherentDecomposition(rng *rand.Rand) *Decomposition {
	n := 8 + rng.Intn(30)
	g := graph.New(n)
	bags := make([][]int, n)
	parent := make([]int, n)
	bags[0] = []int{0}
	parent[0] = -1
	for v := 1; v < n; v++ {
		pb := rng.Intn(v)
		parent[v] = pb
		// Random subset of the parent bag, plus v.
		bag := []int{v}
		for _, u := range bags[pb] {
			if rng.Intn(2) == 0 {
				bag = append(bag, u)
			}
		}
		bags[v] = bag
		// Add edges v-u so edge containment has content.
		for _, u := range bag[1:] {
			if !g.HasEdge(v, u) {
				g.AddEdge(v, u, 1)
			}
		}
	}
	d, err := FromBags(g, bags, parent)
	if err != nil {
		panic(err)
	}
	return d
}

// TestFoldRootedStillValid keeps the defensive validation path covered now
// that hot paths skip it: folds of random decompositions must re-validate.
func TestFoldRootedStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prevDebug := debugValidate
	debugValidate = true
	defer func() { debugValidate = prevDebug }()
	for trial := 0; trial < 25; trial++ {
		d := randomCoherentDecomposition(rng)
		if _, _, err := FoldRooted(d.Root(0)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
