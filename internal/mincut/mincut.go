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

func (r *Result) consider(w float64, side []int) {
	if w < r.Value {
		r.Value = w
		r.Side = append(r.Side[:0], side...)
	}
}

// packOneTree computes the minimum spanning tree with respect to current
// loads (ties by original weight, then ID). The reweighted copy keeps g's
// tombstones, and with them g's edge IDs.
func packOneTree(g *graph.Graph, loads []float64, opts Options) (ids []int, stats *mst.RunStats, err error) {
	// Reweighted copy: key = load, tie-broken by (weight, id) via tiny
	// epsilons that preserve the lexicographic order.
	h := g.Clone()
	maxW := g.MaxWeight() + 1
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
// ones) of the packed tree.
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
	// 1-respecting values via the LCA difference trick.
	l := graph.NewLCA(t)
	diff := make([]float64, n)
	for id := 0; id < g.M(); id++ {
		e := g.Edge(id)
		if g.EdgeRemoved(id) || t.IsTreeEdge(id) {
			continue
		}
		a := l.Query(e.U, e.V)
		diff[e.U] += e.W
		diff[e.V] += e.W
		diff[a] -= 2 * e.W
	}
	cut1 := make([]float64, n) // indexed by subtree root v (v != Root)
	// Bottom-up accumulation of diff.
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		cut1[v] += diff[v]
		if p := t.Parent[v]; p != -1 {
			cut1[p] += cut1[v]
		}
	}
	subtreeVerts := func(v int) []int {
		var out []int
		stack := []int{v}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = append(out, x)
			stack = append(stack, t.Children[x]...)
		}
		return out
	}
	for v := 0; v < n; v++ {
		if v == t.Root {
			continue
		}
		w := cut1[v] + g.Edge(t.ParentEdge[v]).W
		res.consider(w, subtreeVerts(v))
		cut1[v] = w // reuse as δ(S_v) for the 2-respecting pass
	}
	if !opts.TwoRespecting {
		return
	}
	// 2-respecting: for every pair of subtrees, disjoint or nested.
	for u := 0; u < n; u++ {
		if u == t.Root {
			continue
		}
		for v := u + 1; v < n; v++ {
			if v == t.Root {
				continue
			}
			var w float64
			switch {
			case inSub(u, v): // v nested in u
				w = nestedCut(g, cut1, u, v, inSub)
			case inSub(v, u):
				w = nestedCut(g, cut1, v, u, inSub)
			default: // disjoint: δ(A)+δ(B)-2w(A,B)
				w = cut1[u] + cut1[v] - 2*crossWeight(g, u, v, inSub)
			}
			if w < res.Value && w >= 0 {
				side := subtreeVerts(u)
				if inSub(u, v) {
					// A \ B
					keep := side[:0]
					for _, x := range side {
						if !inSub(v, x) {
							keep = append(keep, x)
						}
					}
					side = keep
				} else if inSub(v, u) {
					side = subtreeVerts(v)
					keep := side[:0]
					for _, x := range side {
						if !inSub(u, x) {
							keep = append(keep, x)
						}
					}
					side = keep
				} else {
					side = append(side, subtreeVerts(v)...)
				}
				if len(side) > 0 && len(side) < n {
					res.consider(w, side)
				}
			}
		}
	}
}

// crossWeight sums edges with one endpoint in S_u and the other in S_v
// (disjoint subtrees).
func crossWeight(g *graph.Graph, u, v int, inSub func(int, int) bool) float64 {
	var w float64
	for id := 0; id < g.M(); id++ {
		if g.EdgeRemoved(id) {
			continue
		}
		e := g.Edge(id)
		au, bu := inSub(u, e.U), inSub(u, e.V)
		av, bv := inSub(v, e.U), inSub(v, e.V)
		if (au && bv) || (av && bu) {
			w += e.W
		}
	}
	return w
}

// nestedCut computes δ(S_u \ S_v) = δ(S_u) − δ(S_v) + 2·w(S_v, S_u∖S_v)
// for S_v nested inside S_u.
func nestedCut(g *graph.Graph, cut1 []float64, u, v int, inSub func(int, int) bool) float64 {
	var wBA float64
	for id := 0; id < g.M(); id++ {
		if g.EdgeRemoved(id) {
			continue
		}
		e := g.Edge(id)
		inVU := inSub(v, e.U)
		inVV := inSub(v, e.V)
		if inVU == inVV {
			continue
		}
		// One endpoint in S_v; the other must be in S_u ∖ S_v.
		other := e.U
		if inVU {
			other = e.V
		}
		if inSub(u, other) {
			wBA += e.W
		}
	}
	return cut1[u] - cut1[v] + 2*wBA
}
