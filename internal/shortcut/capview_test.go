package shortcut_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// doublingCaps is the cap search's guess sequence: 1, 2, 4, ... clamped to
// the part count, which is the last guess.
func doublingCaps(np int) []int {
	var caps []int
	for c := 1; ; c *= 2 {
		caps = append(caps, min(c, np))
		if c >= np {
			return caps
		}
	}
}

// TestCapViewsMatchConstructPrio: under one ranking the flooding fixed
// points nest, so the cap-c view of the cap-P state (P the part count) is
// ConstructPrio at cap c. On random grids with a removed edge, k-trees and
// wheel chains, under the identity, block-count and random rankings, every
// doubling cap's view must give ConstructPrio's flooding state,
// measurement, edge lists, block tops and probed eccentricity, and so must
// its Compact copy. The views must leave the cap-P state as it was.
func TestCapViewsMatchConstructPrio(t *testing.T) {
	rng := xrand.New(2027)
	views := 0
	for trial := 0; trial < 60; trial++ {
		name, g, tr, p := lazyInstance(t, rng)
		np := p.NumParts()
		perm := make([]int32, np)
		for i, r := range rng.Perm(np) {
			perm[i] = int32(r)
		}
		probe := shortcut.NewEccProbe(g, tr, p)
		for _, prio := range [][]int32{identityRanking(np), shortcut.TreeBlockPriorities(tr, p), perm} {
			full := shortcut.ConstructPrio(g, tr, p, np, prio)
			state := cloneState(full.FloodState())
			caps := doublingCaps(np)
			got, err := full.CapViews(caps)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, c := range caps {
				at := fmt.Sprintf("%s, %d parts, cap %d, prio %v", name, np, c, prio)
				want := shortcut.ConstructPrio(g, tr, p, c, prio)
				for _, s := range []*shortcut.Shortcut{got[k], got[k].Compact()} {
					checkSameShortcut(t, at, s, want, probe)
				}
				if shortcut.Filled(got[k].Compact()) {
					t.Fatalf("%s: Compact filled the edge lists", at)
				}
				views++
			}
			if !slices.EqualFunc(full.FloodState(), state, slices.Equal[[]int32]) {
				t.Fatalf("%s: reading the views changed the cap-%d state", name, np)
			}
		}
	}
	if views < 400 {
		t.Fatalf("only %d views compared", views)
	}
}

// checkSameShortcut fails unless s reads as want does: flooding state,
// measurement, edge lists, block tops and the probed eccentricity.
func checkSameShortcut(t *testing.T, at string, s, want *shortcut.Shortcut, probe *shortcut.EccProbe) {
	t.Helper()
	if !slices.EqualFunc(s.FloodState(), want.FloodState(), slices.Equal[[]int32]) {
		t.Fatalf("%s: flooding state %v, ConstructPrio's %v", at, s.FloodState(), want.FloodState())
	}
	if got, w := s.Measure(), want.Measure(); !sameMeasurement(got, w) {
		t.Fatalf("%s: measurement %+v, ConstructPrio's %+v", at, got, w)
	}
	gotEcc, gotErr := probe.MaxAugmentedEcc(s)
	wantEcc, wantErr := probe.MaxAugmentedEcc(want)
	if gotEcc != wantEcc || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: probe %d, %v; ConstructPrio's %d, %v", at, gotEcc, gotErr, wantEcc, wantErr)
	}
	if !slices.EqualFunc(s.Edges(), want.Edges(), slices.Equal[[]int]) {
		t.Fatalf("%s: edge lists %v, ConstructPrio's %v", at, s.Edges(), want.Edges())
	}
	if !slices.EqualFunc(s.BlockTops(), want.BlockTops(), slices.Equal[[]int32]) {
		t.Fatalf("%s: block tops %v, ConstructPrio's %v", at, s.BlockTops(), want.BlockTops())
	}
}

// cloneState copies a flooding state list by list.
func cloneState(state [][]int32) [][]int32 {
	out := make([][]int32, len(state))
	for v, l := range state {
		out[v] = slices.Clone(l)
	}
	return out
}

// TestCapViewsRejectsCaps: a view needs a state ConstructPrio generated at
// a cap no smaller than the view's, and ascending caps from 1.
func TestCapViewsRejectsCaps(t *testing.T) {
	name, g, tr, p := lazyInstance(t, xrand.New(3))
	id := identityRanking(p.NumParts())
	s := shortcut.ConstructPrio(g, tr, p, 4, id)
	for _, caps := range [][]int{{0}, {5}, {2, 1}, {2, 2}} {
		if _, err := s.CapViews(caps); err == nil {
			t.Fatalf("%s: caps %v of a cap-4 state accepted", name, caps)
		}
	}
	checked, err := shortcut.FromFloodState(g, tr, p, s.FloodState(), id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checked.CapViews([]int{1}); err == nil {
		t.Fatalf("%s: views of a FromFloodState state accepted", name)
	}
	hand, err := shortcut.New(g, tr, p, s.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hand.CapViews([]int{1}); err == nil {
		t.Fatalf("%s: views of an edge-built shortcut accepted", name)
	}
	if hand.Compact() != hand || s.Compact() != s {
		t.Fatalf("%s: Compact copied a shortcut that is no view", name)
	}
}

// TestFloodPassMatchesReference: the flood pass merges the children's
// sorted lists at a vertex with few tree children and marks and sorts at
// one with many. On a wheel rooted on its rim, whose hub has hundreds of
// tree children, and on random grids with a removed edge, k-trees and
// wheel chains, ConstructPrio's state must equal the fixed point computed
// from its definition at every doubling cap, under the block-count
// ranking and a random one.
func TestFloodPassMatchesReference(t *testing.T) {
	rng := xrand.New(77)
	wheel := gen.Wheel(300).G
	wheelTree, err := graph.BFSTree(wheel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hub := wheel.N() - 1; wheelTree.Parent[hub] == -1 || len(wheelTree.Children[hub]) < 250 {
		t.Fatalf("the hub has %d tree children; want a non-root hub with most of the rim", len(wheelTree.Children[hub]))
	}
	wheelParts, err := partition.Voronoi(wheel, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial <= 40; trial++ {
		name, g, tr, p := "wheel n=301", wheel, wheelTree, wheelParts
		if trial > 0 {
			name, g, tr, p = lazyInstance(t, rng)
		}
		np := p.NumParts()
		perm := make([]int32, np)
		for i, r := range rng.Perm(np) {
			perm[i] = int32(r)
		}
		for _, prio := range [][]int32{shortcut.TreeBlockPriorities(tr, p), perm} {
			for _, c := range doublingCaps(np) {
				want := referenceFloodState(tr, p, prio, c)
				if got := shortcut.ConstructPrio(g, tr, p, c, prio).FloodState(); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
					t.Fatalf("%s cap %d: state %v, reference %v", name, c, got, want)
				}
			}
		}
	}
}

// referenceFloodState is the flooding fixed point by its definition:
// children first, the cap best ranks of the set of v's own part's rank and
// every rank a child admits, and nothing at the root.
func referenceFloodState(tr *graph.Tree, p *partition.Parts, prio []int32, c int) [][]int32 {
	state := make([][]int32, len(tr.Parent))
	for oi := len(tr.Order) - 1; oi >= 0; oi-- {
		v := tr.Order[oi]
		if tr.Parent[v] == -1 {
			continue
		}
		set := map[int32]bool{}
		if pi := p.Of[v]; pi != -1 {
			set[prio[pi]] = true
		}
		for _, ch := range tr.Children[v] {
			for _, r := range state[ch] {
				set[r] = true
			}
		}
		var l []int32
		for r := range set {
			l = append(l, r)
		}
		slices.Sort(l)
		if len(l) > c {
			l = l[:c]
		}
		state[v] = l
	}
	return state
}
