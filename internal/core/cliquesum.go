package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/structure"
	"repro/internal/tw"
)

// CliqueSumWitness is the structural input for Theorem 7: the clique-sum
// decomposition tree plus, per bag, its clique-completed local graph B⁰, a
// tree decomposition of it (the family-F shortcut witness), and the
// local-to-global vertex map.
type CliqueSumWitness struct {
	CST         *structure.CliqueSumTree
	BagGraphs   []*graph.Graph
	BagDecomp   []*tw.Decomposition
	BagToGlobal [][]int
}

// Result is a constructed shortcut plus its measurement and diagnostics.
type Result struct {
	S    *shortcut.Shortcut
	M    shortcut.Measurement
	Info map[string]int
}

// CliqueSumShortcut realizes Theorem 7: a T-restricted shortcut on a
// k-clique-sum of graphs from a family F (here: graphs carrying treewidth
// witnesses), with block parameter 2k + O(b_F) and congestion
// O(k·log²n) + c_F, via the folded decomposition tree of Figure 4.
//
// Per the paper's proof of Lemma 1 + Theorem 7:
//   - global shortcuts: each part P receives the tree edges inside the
//     decomposition subtrees hanging below its LCA group h_P, minus edges of
//     the h_P group's bags;
//   - local shortcuts: within every bag of the h_P group that P meets, the
//     repaired tree T²ₕ (Steiner contraction of T onto the bag) carries a
//     family-F shortcut for P's clipped components; assigned virtual edges
//     are discarded, as are edges inside the parent partial clique.
func CliqueSumShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, w *CliqueSumWitness) (*Result, error) {
	return cliqueSumShortcut(g, t, p, w, tw.Fold)
}

// CliqueSumShortcutUnfolded is the Lemma 1 variant without decomposition-
// tree compression: congestion carries the raw depth d_DT instead of
// O(log² n). It exists for the folding ablation (experiment E10).
func CliqueSumShortcutUnfolded(g *graph.Graph, t *graph.Tree, p *partition.Parts, w *CliqueSumWitness) (*Result, error) {
	return cliqueSumShortcut(g, t, p, w, tw.IdentityFold)
}

func cliqueSumShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, w *CliqueSumWitness, foldFn func([]int, int) *tw.Folded) (*Result, error) {
	cst := w.CST
	nBags := len(cst.Bags)
	if nBags == 0 {
		return nil, fmt.Errorf("core: empty clique-sum witness")
	}
	// Root and fold the decomposition tree.
	parent := make([]int, nBags)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	queue := []int{0}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range cst.Adj[x] {
			if parent[y] == -2 {
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	folded := foldFn(parent, 0)
	nGroups := len(folded.Groups)
	rootGroup := folded.GroupOf[0]

	// Euler intervals on the folded group tree.
	tin, tout := eulerIntervals(folded.Parent, rootGroup)
	isAncestor := func(a, b int) bool { return tin[a] <= tin[b] && tout[b] <= tout[a] }

	// Per vertex: bags containing it, in CSR layout.
	inOff := make([]int32, g.N()+1)
	for bi := range cst.Bags {
		for _, v := range cst.Bags[bi].Vertices {
			inOff[v+1]++
		}
	}
	for v := 0; v < g.N(); v++ {
		inOff[v+1] += inOff[v]
	}
	inBagsStore := make([]int32, inOff[g.N()])
	inFill := make([]int32, g.N())
	for bi := range cst.Bags {
		for _, v := range cst.Bags[bi].Vertices {
			inBagsStore[inOff[v]+inFill[v]] = int32(bi)
			inFill[v]++
		}
	}
	// Tree edges: groups containing each tree edge (groups of bags whose
	// edge list has it), dense per edge ID. The per-edge group lists double
	// as the E(B_h) exclusion test (they are tiny: an edge lives in the few
	// bags sharing it).
	// CSR sized by raw (pre-dedup) counts; the fill dedups by scanning the
	// filled prefix, which is tiny (an edge lives in the few bags sharing
	// it), so goLen tracks the deduplicated lengths.
	goOff := make([]int32, g.M()+1)
	for bi := range cst.Bags {
		for _, id := range cst.Bags[bi].Edges {
			if t.IsTreeEdge(id) {
				goOff[id+1]++
			}
		}
	}
	for id := 0; id < g.M(); id++ {
		goOff[id+1] += goOff[id]
	}
	goStore := make([]int32, goOff[g.M()])
	goLen := make([]int32, g.M())
	for bi := range cst.Bags {
		gi := int32(folded.GroupOf[bi])
		for _, id := range cst.Bags[bi].Edges {
			if !t.IsTreeEdge(id) {
				continue
			}
			dup := false
			for _, x := range goStore[goOff[id] : goOff[id]+goLen[id]] {
				if x == gi {
					dup = true
					break
				}
			}
			if !dup {
				goStore[goOff[id]+goLen[id]] = gi
				goLen[id]++
			}
		}
	}
	groupsOfEdge := func(id int) []int32 { return goStore[goOff[id] : goOff[id]+goLen[id]] }
	edgeInGroup := func(gi int, id int) bool {
		for _, x := range groupsOfEdge(id) {
			if int(x) == gi {
				return true
			}
		}
		return false
	}

	// h_P per part: LCA of the groups of bags meeting P.
	lca := func(a, b int) int {
		for a != b {
			if folded.Depth[a] < folded.Depth[b] {
				a, b = b, a
			}
			a = folded.Parent[a]
		}
		return a
	}
	hGroup := make([]int, p.NumParts())
	for i, set := range p.Sets {
		h := -1
		for _, v := range set {
			for _, bi := range inBagsStore[inOff[v]:inOff[v+1]] {
				gi := folded.GroupOf[bi]
				if h == -1 {
					h = gi
				} else {
					h = lca(h, gi)
				}
			}
		}
		if h == -1 {
			return nil, fmt.Errorf("core: part %d meets no bag", i)
		}
		hGroup[i] = h
	}

	// Subtree boundary separators: for every original decomposition edge
	// (bi, parent bi) whose endpoints fold into different groups, its
	// separator vertices belong to the boundary of every folded subtree the
	// edge crosses (the "double edges" of the folding argument: at most two
	// such separators per folded node, hence at most 2k boundary vertices).
	// Lists may repeat a vertex; partsEntering dedups at the part level.
	boundarySep := make([][]int32, nGroups)
	for bi := range cst.Bags {
		pb := parent[bi]
		if pb < 0 {
			continue
		}
		gc, gp := folded.GroupOf[bi], folded.GroupOf[pb]
		if gc == gp {
			continue
		}
		// Chain folding keeps original neighbors in ancestor-descendant
		// groups, but either endpoint may be the folded ancestor (a chain
		// runs through its group's first/middle/last bags).
		lo, hi := gc, gp // walk from lo up to hi
		switch {
		case isAncestor(gp, gc):
			// keep
		case isAncestor(gc, gp):
			lo, hi = gp, gc
		default:
			return nil, fmt.Errorf("core: fold broke ancestry between bags %d and %d", bi, pb)
		}
		sep := cst.Separator(bi, pb)
		for c := lo; c != hi; c = folded.Parent[c] {
			for _, v := range sep {
				boundarySep[c] = append(boundarySep[c], int32(v))
			}
		}
	}
	// Parts entering each folded subtree: parts owning a boundary vertex
	// (the paper's condition P ∩ V(C_f') ≠ ∅, which caps congestion at
	// O(k) per decomposition level). Deduped per group with an epoch arena
	// over part indices.
	partsEntering := make([][]int, nGroups)
	partSeen := g.AcquireScratch() // part indices: NumParts <= N
	defer g.ReleaseScratch(partSeen)
	for gi := range boundarySep {
		partSeen.Reset()
		for _, v := range boundarySep[gi] {
			if i := p.Of[v]; i != -1 && partSeen.Visit(i) {
				partsEntering[gi] = append(partsEntering[gi], i)
			}
		}
	}
	partsAt := make([][]int, nGroups)
	for i, h := range hGroup {
		partsAt[h] = append(partsAt[h], i)
	}
	edges := make([][]int, p.NumParts())
	// Global shortcut grants: for each tree edge, walk up from each group
	// containing it; at ancestor a reached through child subtree c, parts
	// anchored at a that enter c's subtree receive the edge, except edges of
	// the anchor group's own bags (handled locally). Iterating tree edges by
	// child vertex keeps the grant order deterministic.
	granted := g.AcquireScratch() // part indices: NumParts <= N
	defer g.ReleaseScratch(granted)
	// Two passes over the grant walks: count per part, then fill exact-size
	// lists sliced from one backing array (local grants append after them).
	grantCounts := make([]int32, p.NumParts())
	grantTotal := 0
	walk := func(id int, emit func(i, id int)) {
		granted.Reset()
		for _, g32 := range groupsOfEdge(id) {
			c := int(g32)
			for a := folded.Parent[c]; a != -1; c, a = a, folded.Parent[a] {
				if edgeInGroup(a, id) {
					continue
				}
				for _, i := range partsEntering[c] {
					if hGroup[i] == a && granted.Visit(i) {
						emit(i, id)
					}
				}
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		id := t.ParentEdge[v]
		if id == -1 || goLen[id] == 0 {
			continue
		}
		walk(id, func(i, _ int) { grantCounts[i]++; grantTotal++ })
	}
	grantStore := make([]int, 0, grantTotal)
	for i, c := range grantCounts {
		base := len(grantStore)
		grantStore = grantStore[:base+int(c)]
		edges[i] = grantStore[base : base : base+int(c)]
	}
	for v := 0; v < g.N(); v++ {
		id := t.ParentEdge[v]
		if id == -1 || goLen[id] == 0 {
			continue
		}
		walk(id, func(i, id int) { edges[i] = append(edges[i], id) })
	}

	// Local shortcuts: for each bag, the parts anchored at its group that
	// meet it (membership via the partition's dense Of array).
	info := map[string]int{
		"foldedDepth": folded.Height(),
		"groups":      nGroups,
	}
	maxLocalWidth := 0
	for bi := range cst.Bags {
		gi := folded.GroupOf[bi]
		var localPartIdx []int
		for _, i := range partsAt[gi] {
			for _, v := range cst.Bags[bi].Vertices {
				if p.Of[v] == i {
					localPartIdx = append(localPartIdx, i)
					break
				}
			}
		}
		if len(localPartIdx) == 0 {
			continue
		}
		localEdges, width, err := localBagShortcut(g, t, p, w, bi, parent[bi], localPartIdx)
		if err != nil {
			return nil, fmt.Errorf("core: bag %d local shortcut: %w", bi, err)
		}
		if width > maxLocalWidth {
			maxLocalWidth = width
		}
		for i, ids := range localEdges {
			edges[localPartIdx[i]] = append(edges[localPartIdx[i]], ids...)
		}
	}
	info["maxLocalFoldedWidth"] = maxLocalWidth

	// Global walk edges and local bag edges overlap; normalize through the
	// constructor.
	s, err := shortcut.NewNormalized(g, t, p, edges)
	if err != nil {
		return nil, fmt.Errorf("core: assembling clique-sum shortcut: %w", err)
	}
	return &Result{S: s, M: s.Measure(), Info: info}, nil
}

// localBagShortcut builds the local (within-bag) shortcut of Theorem 7 for
// the given parts: Steiner-contract T onto the bag, run the family
// (treewidth) shortcutter on the completed bag graph, keep only real global
// tree edges, and drop edges inside the parent partial clique.
func localBagShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, w *CliqueSumWitness, bi, parentBag int, partIdx []int) (perPart [][]int, foldedWidth int, err error) {
	bagLocal := w.BagGraphs[bi]
	toGlobal := w.BagToGlobal[bi]
	toLocal := g.AcquireScratch() // global vertex -> local bag index
	defer g.ReleaseScratch(toLocal)
	for li, v := range toGlobal {
		toLocal.Set(v, int32(li))
	}
	// Repaired tree T²: Steiner contraction mapped into bag-local indices.
	// All the small per-call int buffers share one backing allocation.
	ln := bagLocal.N()
	lstore := make([]int, 2*ln, 3*ln)
	lparent := lstore[:ln]
	lparentEdge := lstore[ln : 2*ln]
	stEdges, stRoot := steinerContract(t, toGlobal)
	realGlobal := bagLocal.AcquireScratch() // local edge ID -> global tree edge ID
	defer bagLocal.ReleaseScratch(realGlobal)
	for i := range lparent {
		lparent[i] = -1
		lparentEdge[i] = -1
	}
	for _, se := range stEdges {
		lc, lp := int(toLocal.GetOr(se.Child, -1)), int(toLocal.GetOr(se.Parent, -1))
		leid := bagLocal.FindEdge(lc, lp)
		if leid == -1 {
			return nil, 0, fmt.Errorf("repaired tree edge {%d,%d} missing from completed bag", se.Child, se.Parent)
		}
		lparent[lc] = lp
		lparentEdge[lc] = leid
		if se.GlobalID != -1 {
			realGlobal.Set(leid, int32(se.GlobalID))
		}
	}
	ltree, err := graph.TreeFromParents(bagLocal, int(toLocal.GetOr(stRoot, -1)), lparent, lparentEdge)
	if err != nil {
		return nil, 0, fmt.Errorf("repaired tree invalid: %w", err)
	}
	// Clip parts into the bag and split into components of the completed
	// bag graph (the double-edge treatment: components become sub-parts).
	sets := make([][]int, 0, len(partIdx))
	origin := make([]int, 0, len(partIdx)) // sub-part -> index into partIdx
	localVs := lstore[2*ln : 2*ln : 3*ln]
	for k, i := range partIdx {
		localVs = localVs[:0]
		for _, v := range p.Sets[i] {
			if lv, ok := toLocal.Get(v); ok {
				localVs = append(localVs, int(lv))
			}
		}
		for _, comp := range componentsWithin(bagLocal, localVs) {
			sets = append(sets, comp)
			origin = append(origin, k)
		}
	}
	perPart = make([][]int, len(partIdx))
	if len(sets) == 0 {
		return perPart, 0, nil
	}
	// componentsWithin splits into connected pieces, so skip the re-check.
	lp, err := partition.NewUnchecked(bagLocal, sets)
	if err != nil {
		return nil, 0, fmt.Errorf("clipped parts invalid: %w", err)
	}
	res, err := shortcut.FromTreewidth(bagLocal, ltree, lp, w.BagDecomp[bi])
	if err != nil {
		return nil, 0, err
	}
	// Parent partial clique exclusion set (separators are tiny: ≤ k+1).
	var sepGlobal []int
	if parentBag >= 0 {
		sepGlobal = w.CST.Separator(bi, parentBag)
	}
	inSep := func(v int) bool {
		for _, s := range sepGlobal {
			if s == v {
				return true
			}
		}
		return false
	}
	// Two passes: count surviving grants per part, then fill exact-size
	// lists sliced from one backing array.
	keep := func(leid int) (int, bool) {
		gid, real := realGlobal.Get(leid)
		if !real {
			return 0, false // virtual contracted-path edge: discard
		}
		ge := g.Edge(int(gid))
		if inSep(ge.U) && inSep(ge.V) {
			return 0, false // inside the parent partial clique: discard
		}
		return int(gid), true
	}
	counts := make([]int32, len(partIdx))
	total := 0
	for si, ids := range res.S.Edges() {
		for _, leid := range ids {
			if _, ok := keep(leid); ok {
				counts[origin[si]]++
				total++
			}
		}
	}
	grantStore := make([]int, 0, total)
	for k := range perPart {
		base := len(grantStore)
		grantStore = grantStore[:base+int(counts[k])]
		perPart[k] = grantStore[base : base : base+int(counts[k])]
	}
	for si, ids := range res.S.Edges() {
		for _, leid := range ids {
			if gid, ok := keep(leid); ok {
				perPart[origin[si]] = append(perPart[origin[si]], gid)
			}
		}
	}
	return perPart, res.FoldedWidth, nil
}

// componentsWithin splits a vertex set into connected components of the
// induced subgraph of lg. One scratch slot per vertex: 0 = in set, unseen;
// 1 = seen.
func componentsWithin(lg *graph.Graph, vs []int) [][]int {
	in := lg.AcquireScratch()
	defer lg.ReleaseScratch(in)
	for _, v := range vs {
		in.Set(v, 0)
	}
	var out [][]int
	var stack []int
	store := make([]int, 0, len(vs)) // all components share one backing array
	for _, v := range vs {
		if st, _ := in.Get(v); st == 1 {
			continue
		}
		base := len(store)
		stack = append(stack[:0], v)
		in.Set(v, 1)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			store = append(store, x)
			for _, a := range lg.Adj(x) {
				if st, ok := in.Get(a.To); ok && st == 0 {
					in.Set(a.To, 1)
					stack = append(stack, a.To)
				}
			}
		}
		comp := store[base:len(store):len(store)]
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// eulerIntervals computes entry/exit times of a rooted tree given by parent
// pointers.
func eulerIntervals(parent []int, root int) (tin, tout []int) {
	n := len(parent)
	tin = make([]int, n)
	tout = make([]int, n)
	// Children lists in CSR layout.
	deg := make([]int32, n)
	for _, p := range parent {
		if p >= 0 {
			deg[p]++
		}
	}
	children := make([][]int, n)
	childStore := make([]int, 0, n)
	for v := 0; v < n; v++ {
		base := len(childStore)
		childStore = childStore[:base+int(deg[v])]
		children[v] = childStore[base : base : base+int(deg[v])]
	}
	for v, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	timer := 0
	type frame struct {
		v    int
		exit bool
	}
	stack := make([]frame, 1, 2*n)
	stack[0] = frame{root, false}
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
		for _, c := range children[f.v] {
			stack = append(stack, frame{c, false})
		}
	}
	return tin, tout
}
