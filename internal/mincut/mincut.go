// Package mincut implements the distributed (1+ε)-approximate minimum cut
// of the shortcut framework (paper Corollary 1), in the tree-packing style
// of Karger/Thorup as used by [GH16, NS14]:
//
//  1. greedily pack spanning trees, each packing iteration being an MST
//     computation over the current edge loads — run through the distributed
//     ShortcutBoruvka so every round is accounted;
//  2. for each packed tree, evaluate all cuts that 1-respect the tree via
//     subtree-sum convergecasts (O(depth) rounds each, charged), and
//     optionally all 2-respecting cuts (evaluated centrally; see DESIGN.md
//     substitutions);
//  3. return the lightest cut seen.
//
// With enough trees some packed tree 2-respects a (1+ε)-minimum cut w.h.p.;
// tests validate achieved ratios against exact Stoer-Wagner.
package mincut

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/pipeline"
)

// Options configures the approximation.
type Options struct {
	// Trees to pack; 0 derives ceil(6·ln(m+1)/eps²) capped at 48. Must
	// not be negative (ErrInvalidOptions otherwise).
	Trees int
	// Eps is the target approximation slack (default 0.1); only used to
	// derive Trees when Trees == 0. Must be finite and non-negative
	// (ErrInvalidOptions otherwise).
	Eps float64
	// TwoRespecting enables exact 2-respecting evaluation per tree
	// (centrally computed; O(n²·depth²+m·depth²) time — keep n modest).
	TwoRespecting bool
	// SimulateMST runs each packing iteration on the CONGEST simulator;
	// false computes trees sequentially and charges rounds analytically
	// (tree height based), for large benches.
	SimulateMST bool
	// ProviderFor supplies the shortcut provider for a packing iteration's
	// reweighted graph copy (same topology and edge IDs as the input
	// graph). Nil keeps the oblivious default. When set, every packing
	// iteration runs the real distributed Borůvka under that provider —
	// the provider's own mode decides which ledger its construction rounds
	// land in — so the zero-witness pipeline (pipeline.Setup.Provider over
	// a transferred tree) plugs in directly.
	ProviderFor func(h *graph.Graph) (pipeline.Provider, error)
}

// Result reports the approximation outcome.
type Result struct {
	Value         float64
	Side          []int // one side of the best cut found
	Trees         int
	CommRounds    int
	ChargedRounds int
}

// ErrInvalidOptions is wrapped by Approx when Options fail validation,
// mirroring sssp.ErrInvalidOptions: errors.Is-able, with the offending
// field in the message.
var ErrInvalidOptions = errors.New("mincut: invalid options")

// maxDerivedTrees caps the tree count derived from Eps.
const maxDerivedTrees = 48

// Approx finds a light global cut by greedy tree packing. Edge weights
// must be non-negative; a negative or NaN weight is an error. Every edge
// loop skips RemoveEdge tombstones, so g may carry the deletes of a
// maintained shortcut's churn repairs.
func Approx(g *graph.Graph, opts Options) (*Result, error) {
	if math.IsNaN(opts.Eps) || math.IsInf(opts.Eps, 0) || opts.Eps < 0 {
		return nil, fmt.Errorf("%w: eps %v (want finite eps >= 0)", ErrInvalidOptions, opts.Eps)
	}
	if opts.Trees < 0 {
		return nil, fmt.Errorf("%w: negative Trees %d", ErrInvalidOptions, opts.Trees)
	}
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("mincut: need >= 2 vertices")
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("mincut: %w", graph.ErrDisconnected)
	}
	for id := 0; id < g.M(); id++ {
		if w := g.Edge(id).W; !g.EdgeRemoved(id) && (w < 0 || math.IsNaN(w)) {
			return nil, fmt.Errorf("mincut: edge %d has weight %v", id, w)
		}
	}
	if opts.Eps == 0 {
		opts.Eps = 0.1
	}
	trees := opts.Trees
	if trees == 0 {
		// Clamp in float64 before converting: a tiny eps overflows the int
		// conversion, and a huge one rounds to zero trees.
		derived := math.Ceil(6 * math.Log(float64(g.M()+1)) / (opts.Eps * opts.Eps))
		trees = int(math.Max(1, math.Min(derived, maxDerivedTrees)))
	}
	res := &Result{Trees: trees, Value: math.Inf(1)}
	// Trivial candidates: singleton cuts.
	for v := 0; v < n; v++ {
		var w float64
		for _, a := range g.Adj(v) {
			w += g.Edge(a.ID).W
		}
		res.consider(w, []int{v})
	}
	loads := make([]float64, g.M())
	for t := 0; t < trees; t++ {
		treeIDs, stats, err := packOneTree(g, loads, opts)
		if err != nil {
			return nil, fmt.Errorf("mincut: packing tree %d: %w", t, err)
		}
		res.CommRounds += stats.CommRounds
		res.ChargedRounds += stats.ChargedRounds
		for _, id := range treeIDs {
			loads[id] += 1 / g.Edge(id).W
		}
		tree, err := graph.TreeFromEdgeIDs(g, treeIDs, 0)
		if err != nil {
			return nil, err
		}
		evalTreeCuts(g, tree, opts, res)
		// Subtree-sum convergecast + broadcast per tree (the distributed
		// 1-respecting evaluation): O(height) rounds, pipelined. On the
		// analytic path nothing is simulated, so the charge belongs in the
		// same ledger as the packing rounds; mixing it into CommRounds used
		// to overstate the simulated-round count in analytic runs.
		if opts.SimulateMST {
			res.CommRounds += 2*tree.Height() + 2
		} else {
			res.ChargedRounds += 2*tree.Height() + 2
		}
	}
	sort.Ints(res.Side)
	return res, nil
}

// consider keeps side if it cuts less than the best cut so far, or if no
// cut is kept yet, so a result always holds a non-empty proper side.
func (r *Result) consider(w float64, side []int) {
	if w < r.Value || len(r.Side) == 0 {
		r.Value = w
		r.Side = append(r.Side[:0], side...)
	}
}

// packOneTree computes the minimum spanning tree with respect to current
// loads (ties by original weight, then ID). The reweighted copy keeps g's
// tombstones, and with them g's edge IDs.
func packOneTree(g *graph.Graph, loads []float64, opts Options) (ids []int, stats *mst.RunStats, err error) {
	// Reweighted copy: key = load, tie-broken by (weight, id) via tiny
	// epsilons that preserve the lexicographic order. The scale is the
	// largest finite weight plus one: an infinite weight would make it
	// infinite, and a zero load times it NaN.
	h := g.Clone()
	maxW := 1.0
	for id := 0; id < g.M(); id++ {
		if w := g.Edge(id).W; !g.EdgeRemoved(id) && !math.IsInf(w, 0) {
			maxW = max(maxW, w+1)
		}
	}
	for id := 0; id < g.M(); id++ {
		if !g.EdgeRemoved(id) {
			h.SetWeight(id, loads[id]*maxW*float64(g.M()+1)+g.Edge(id).W)
		}
	}
	if opts.SimulateMST || opts.ProviderFor != nil {
		var prov pipeline.Provider
		if opts.ProviderFor != nil {
			p, err := opts.ProviderFor(h)
			if err != nil {
				return nil, nil, err
			}
			prov = p
		} else {
			t, err := graph.BFSTree(h, 0)
			if err != nil {
				return nil, nil, err
			}
			prov = mst.ObliviousProvider(h, t)
		}
		rs, err := mst.ShortcutBoruvka(h, prov)
		if err != nil {
			return nil, nil, err
		}
		return rs.EdgeIDs, rs, nil
	}
	ids, _ = graph.Kruskal(h)
	t, err := graph.BFSTree(g, 0)
	if err != nil {
		return nil, nil, err
	}
	// Analytic charge: O(log n) Borůvka phases, each Õ(height) with good
	// shortcuts.
	lg := 1
	for 1<<lg < g.N() {
		lg++
	}
	return ids, &mst.RunStats{ChargedRounds: lg * (2*t.Height() + 2)}, nil
}

// evalTreeCuts scans all 1-respecting cuts (and optionally 2-respecting
// ones) of the packed tree. Every cut it keeps is summed directly over the
// edges crossing its side: a sum of non-negative weights, in which +Inf
// stays +Inf and no weight cancels another.
func evalTreeCuts(g *graph.Graph, t *graph.Tree, opts Options, res *Result) {
	n := g.N()
	// Euler intervals for subtree membership.
	tin := make([]int, n)
	tout := make([]int, n)
	timer := 0
	type frame struct {
		v    int
		exit bool
	}
	stack := []frame{{t.Root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.exit {
			tout[f.v] = timer
			timer++
			continue
		}
		tin[f.v] = timer
		timer++
		stack = append(stack, frame{f.v, true})
		for _, c := range t.Children[f.v] {
			stack = append(stack, frame{c, false})
		}
	}
	inSub := func(root, x int) bool { return tin[root] <= tin[x] && tout[x] <= tout[root] }
	// offer sums the cut of the side in marks and hands the side to res if
	// it cuts less than the best so far.
	offer := func(in func(int) bool) {
		var w float64
		for id := 0; id < g.M(); id++ {
			if e := g.Edge(id); !g.EdgeRemoved(id) && in(e.U) != in(e.V) {
				w += e.W
			}
		}
		if w < res.Value {
			var side []int
			for x := 0; x < n; x++ {
				if in(x) {
					side = append(side, x)
				}
			}
			res.consider(w, side)
		}
	}
	if opts.TwoRespecting {
		// Every subtree, then every pair of subtrees, disjoint or nested,
		// summed directly: the pair loop pays O(m) per pair either way.
		for u := 0; u < n; u++ {
			if u != t.Root {
				offer(func(x int) bool { return inSub(u, x) })
			}
		}
		for u := 0; u < n; u++ {
			if u == t.Root {
				continue
			}
			for v := u + 1; v < n; v++ {
				switch {
				case v == t.Root:
				case inSub(u, v): // S_u ∖ S_v
					offer(func(x int) bool { return inSub(u, x) && !inSub(v, x) })
				case inSub(v, u): // S_v ∖ S_u
					offer(func(x int) bool { return inSub(v, x) && !inSub(u, x) })
				default: // S_u ∪ S_v
					offer(func(x int) bool { return inSub(u, x) || inSub(v, x) })
				}
			}
		}
		return
	}
	// 1-respecting values via the LCA difference trick, over the finite
	// weights, with the +Inf edges counted apart so that no Inf − Inf
	// makes a NaN. The trick subtracts, so a huge weight can cancel small
	// ones: its value only picks the subtrees offer re-sums.
	l := graph.NewLCA(t)
	diff := make([]float64, n)
	inf := make([]int, n)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if g.EdgeRemoved(id) || t.IsTreeEdge(id) {
			continue
		}
		a := l.Query(e.U, e.V)
		if math.IsInf(e.W, 1) {
			inf[e.U]++
			inf[e.V]++
			inf[a] -= 2
			continue
		}
		diff[e.U] += e.W
		diff[e.V] += e.W
		diff[a] -= 2 * e.W
	}
	// Bottom-up accumulation: diff[v] and inf[v] become S_v's sums.
	for i := len(t.Order) - 1; i >= 1; i-- {
		v := t.Order[i]
		diff[t.Parent[v]] += diff[v]
		inf[t.Parent[v]] += inf[v]
	}
	for v := 0; v < n; v++ {
		if v == t.Root {
			continue
		}
		up := g.Edge(t.ParentEdge[v]).W
		if inf[v] > 0 || math.IsInf(up, 1) {
			continue // cuts +Inf, which never beats the kept cut
		}
		if w := diff[v] + up; w < res.Value || math.IsNaN(w) {
			offer(func(x int) bool { return inSub(v, x) })
		}
	}
}
