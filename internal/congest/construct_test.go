package congest_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// constructInstances builds the protocol test matrix: families with
// different tree shapes and part geometries.
func constructInstances(t *testing.T) []struct {
	name string
	g    *graph.Graph
	tr   *graph.Tree
	p    *partition.Parts
} {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var out []struct {
		name string
		g    *graph.Graph
		tr   *graph.Tree
		p    *partition.Parts
	}
	add := func(name string, g *graph.Graph, root int, p *partition.Parts, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tr, err := graph.BFSTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			name string
			g    *graph.Graph
			tr   *graph.Tree
			p    *partition.Parts
		}{name, g, tr, p})
	}
	grid := gen.Grid(7, 7).G
	pg, err := partition.GridRows(grid, 7, 7)
	add("grid-rows", grid, 0, pg, err)
	wheel := gen.Wheel(25).G
	pw, err := partition.RimArcs(wheel, 6)
	add("wheel-arcs", wheel, wheel.N()-1, pw, err)
	er := gen.ErdosRenyiConnected(60, 140, rng)
	pe, err := partition.Voronoi(er, 7, rng)
	add("er-voronoi", er, 0, pe, err)
	pieces := make([]*gen.Piece, 5)
	for i := range pieces {
		pieces[i] = gen.ApollonianPiece(14, rng)
	}
	cs := gen.CliqueSum(pieces, 3, rng)
	pc, err := partition.Voronoi(cs.G, 9, rng)
	add("k5free", cs.G, 0, pc, err)
	return out
}

// TestConstructShortcutMatchesFixedPoint: the simulated protocol converges
// to exactly the sequential fixed point — same per-part edge sets — at a
// range of caps, and its stats are sane.
func TestConstructShortcutMatchesFixedPoint(t *testing.T) {
	for _, tc := range constructInstances(t) {
		for _, cap := range []int{1, 2, 5} {
			res, err := congest.ConstructShortcut(tc.g, tc.tr, tc.p, congest.ConstructOptions{Cap: cap, Simulate: true})
			if err != nil {
				t.Fatalf("%s cap %d: %v", tc.name, cap, err)
			}
			want := shortcut.Construct(tc.g, tc.tr, tc.p, cap)
			for i := range want.Edges() {
				if len(res.S.Edges()[i]) != len(want.Edges()[i]) {
					t.Fatalf("%s cap %d part %d: %v != fixed point %v", tc.name, cap, i, res.S.Edges()[i], want.Edges()[i])
				}
				for j := range want.Edges()[i] {
					if res.S.Edges()[i][j] != want.Edges()[i][j] {
						t.Fatalf("%s cap %d part %d: %v != fixed point %v", tc.name, cap, i, res.S.Edges()[i], want.Edges()[i])
					}
				}
			}
			if m := res.S.Measure(); m.Congestion > cap {
				t.Fatalf("%s cap %d: congestion %d exceeds cap", tc.name, cap, m.Congestion)
			}
			if res.EffectiveRounds < 1 || res.EffectiveRounds > res.Budget {
				t.Fatalf("%s cap %d: effective rounds %d outside (0, budget %d]", tc.name, cap, res.EffectiveRounds, res.Budget)
			}
			if res.Stats.Messages == 0 {
				t.Fatalf("%s cap %d: construction sent no messages", tc.name, cap)
			}
			if res.ChargedRounds != 0 {
				t.Fatalf("%s cap %d: simulate mode filled the charged ledger with %d", tc.name, cap, res.ChargedRounds)
			}
		}
	}
}

// TestConstructShortcutAnalyticLedger: analytic mode returns the identical
// shortcut with the construction budget in the charged ledger and nothing
// in the simulated one.
func TestConstructShortcutAnalyticLedger(t *testing.T) {
	for _, tc := range constructInstances(t) {
		res, err := congest.ConstructShortcut(tc.g, tc.tr, tc.p, congest.ConstructOptions{Cap: 3})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ChargedRounds != congest.ConstructBudget(tc.tr, 3) {
			t.Fatalf("%s: charged %d, want budget %d", tc.name, res.ChargedRounds, congest.ConstructBudget(tc.tr, 3))
		}
		if res.EffectiveRounds != 0 || res.Stats.Messages != 0 {
			t.Fatalf("%s: analytic mode leaked simulated stats %+v", tc.name, res.Stats)
		}
		want := shortcut.Construct(tc.g, tc.tr, tc.p, 3)
		if got, w := res.S.Measure(), want.Measure(); got.Quality != w.Quality {
			t.Fatalf("%s: analytic quality %d != fixed point %d", tc.name, got.Quality, w.Quality)
		}
	}
}

// TestConstructShortcutRejectsForeignTree: construction over a tree of a
// different graph must fail fast rather than flooding a mismatched edge
// space.
func TestConstructShortcutRejectsForeignTree(t *testing.T) {
	g1 := gen.Grid(4, 4).G
	g2 := gen.Grid(4, 4).G
	tr2, err := graph.BFSTree(g2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(g1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := congest.ConstructShortcut(g1, tr2, p, congest.ConstructOptions{Cap: 2, Simulate: true}); err == nil {
		t.Fatal("accepted a tree of a different graph")
	}
	tr1, err := graph.BFSTree(g1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := partition.GridRows(g2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := congest.ConstructShortcut(g1, tr1, p2, congest.ConstructOptions{Cap: 2}); err == nil {
		t.Fatal("accepted parts of a different graph")
	}
}

// TestConstructShortcutRejectsBadPriorities: a priority ranking that is
// not a permutation of 0..parts-1 must fail fast — an out-of-range rank
// would index past the inverse mapping at assembly, a duplicate would
// silently merge two parts' floods.
func TestConstructShortcutRejectsBadPriorities(t *testing.T) {
	g := gen.Grid(4, 4).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(g, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prio []int32
	}{
		{"short", []int32{0, 1}},
		{"out-of-range", []int32{0, 1, 2, 5}},
		{"negative", []int32{0, 1, 2, -1}},
		{"duplicate", []int32{0, 1, 1, 2}},
	} {
		if _, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: 2, Priorities: tc.prio}); err == nil {
			t.Fatalf("%s priorities accepted", tc.name)
		}
	}
}

// TestConstructShortcutDeterministic: the protocol's outcome — edge sets
// and statistics — is identical across GOMAXPROCS settings (the engine's
// determinism contract extended to the construction protocol). Run under
// -race in CI, this also exercises the shard workers against the per-node
// slab state.
func TestConstructShortcutDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := gen.ErdosRenyiConnected(80, 200, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.Voronoi(g, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *congest.ConstructResult {
		res, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: 2, Simulate: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(4)
	b := run()
	if a.Stats != b.Stats {
		t.Fatalf("stats differ across GOMAXPROCS: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.S.Edges() {
		if len(a.S.Edges()[i]) != len(b.S.Edges()[i]) {
			t.Fatalf("part %d edges differ: %v vs %v", i, a.S.Edges()[i], b.S.Edges()[i])
		}
		for j := range a.S.Edges()[i] {
			if a.S.Edges()[i][j] != b.S.Edges()[i][j] {
				t.Fatalf("part %d edges differ: %v vs %v", i, a.S.Edges()[i], b.S.Edges()[i])
			}
		}
	}
}

func TestBuildShortcutThenAggregate(t *testing.T) {
	// End-to-end: distributed construction feeding distributed aggregation.
	rng := rand.New(rand.NewSource(3))
	e := gen.Wheel(49)
	tr, _ := graph.BFSTree(e.G, 48)
	p, err := partition.RimArcs(e.G, 6)
	if err != nil {
		t.Fatal(err)
	}
	built, err := congest.ConstructShortcut(e.G, tr, p, congest.ConstructOptions{Cap: 3, Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, e.G.N())
	for v := range keys {
		keys[v] = uint64(rng.Intn(10000) + 1)
	}
	res, err := congest.AggregateMin(e.G, p, built.S, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumParts(); i++ {
		want := uint64(1 << 62)
		for _, v := range p.Sets[i] {
			if keys[v] < want {
				want = keys[v]
			}
		}
		if res.Mins[i] != want {
			t.Fatalf("part %d: %d want %d", i, res.Mins[i], want)
		}
	}
}

// TestConstructKernelMatchesReference: the protocol's target, the flood
// pass's merge folded at cap, and its two-pointer choice of the next
// message equal the reference helpers below on random nodes: an own rank
// or none, 0–40 child lists, a sent list, at every cap from 1 to the part
// count.
func TestConstructKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	subset := func(np, k int) []int32 {
		out := make([]int32, k)
		for i, r := range rng.Perm(np)[:k] {
			out[i] = int32(r)
		}
		slices.Sort(out)
		return out
	}
	ops := map[int]int{}
	for trial := 0; trial < 400; trial++ {
		np := 1 + rng.Intn(48)
		own := int32(-1)
		if rng.Intn(4) > 0 {
			own = int32(rng.Intn(np))
		}
		rcv := make([][]int32, rng.Intn(41))
		for c := range rcv {
			rcv[c] = subset(np, rng.Intn(np+1))
		}
		for cap := 1; cap <= np; cap++ {
			at := func() string { return fmt.Sprintf("own %d, children %v, cap %d", own, rcv, cap) }
			target := conTarget(own, rcv, cap)
			if got := congest.ConstructTarget(own, rcv, cap); !slices.Equal(got, target) {
				t.Fatalf("%s: target %v, reference %v", at(), got, target)
			}
			// sent: any ranks, a part of the target, or all of it.
			var sent []int32
			switch rng.Intn(3) {
			case 0:
				sent = subset(np, rng.Intn(cap+1))
			case 1:
				for _, r := range target {
					if rng.Intn(2) == 0 {
						sent = append(sent, r)
					}
				}
			default:
				sent = slices.Clone(target)
			}
			op, rank := congest.NextConstructMessage(sent, target)
			wantOp, wantRank := 0, int32(0)
			if x, ok := worstNotIn(sent, target); ok {
				wantOp, wantRank = congest.ConstructEvict, x
			} else if x, ok := bestNotIn(target, sent); ok {
				wantOp, wantRank = congest.ConstructAdmit, x
			}
			if op != wantOp || rank != wantRank {
				t.Fatalf("%s, sent %v: message (%d, %d), reference (%d, %d)", at(), sent, op, rank, wantOp, wantRank)
			}
			ops[op]++
		}
	}
	if ops[0] == 0 || ops[congest.ConstructAdmit] == 0 || ops[congest.ConstructEvict] == 0 {
		t.Fatalf("message choices seen %v: every outcome must be exercised", ops)
	}
}

// The protocol's first kernel, kept as the reference the merge-based one is
// checked against. conTarget inserts every rank present at the node into
// a sorted set bounded at cap; the next message searches one list for each
// element of the other.
func conTarget(own int32, rcv [][]int32, cap int) []int32 {
	var tmp []int32
	if own != -1 {
		tmp = append(tmp, own)
	}
	for _, set := range rcv {
		for _, i := range set {
			tmp = insBounded(tmp, i, cap)
		}
	}
	return tmp
}

// insBounded inserts x into the sorted set keeping only the lowest bound
// elements.
func insBounded(set []int32, x int32, bound int) []int32 {
	if i, found := slices.BinarySearch(set, x); !found {
		set = slices.Insert(set, i, x)
	}
	if len(set) > bound {
		set = set[:bound]
	}
	return set
}

// worstNotIn returns the largest element of a absent from b (both sorted).
func worstNotIn(a, b []int32) (int32, bool) {
	for i := len(a) - 1; i >= 0; i-- {
		if !containsSorted(b, a[i]) {
			return a[i], true
		}
	}
	return 0, false
}

// bestNotIn returns the smallest element of a absent from b (both sorted).
func bestNotIn(a, b []int32) (int32, bool) {
	for _, x := range a {
		if !containsSorted(b, x) {
			return x, true
		}
	}
	return 0, false
}

func containsSorted(set []int32, x int32) bool {
	for _, v := range set {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}
