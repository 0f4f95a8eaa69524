package core

import (
	"fmt"
	"sort"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/structure"
	"repro/internal/tw"
)

// AlmostEmbeddableShortcut realizes Theorem 8: a T-restricted shortcut for a
// (q, g, k, ℓ)-almost-embeddable graph with block parameter
// O(q + (g+1)kℓ²d) and congestion O(q + kℓ²d(g + log n)).
//
// Following Lemmas 9-10:
//   - parts containing an apex receive the whole tree (≤ q of them);
//   - removing the apices splits T into subtrees; their vertex sets are the
//     cells, with cells touching a common vortex merged into special cells;
//   - the relation R from the cell-assignment lemmas (4-6) gives each part
//     its global shortcuts: the full T-subtrees of its assigned cells plus
//     their uplink edges toward the apices;
//   - every tree component gets local shortcuts: the clipped parts run
//     through the treewidth construction with a diameter-based decomposition
//     of the component (induced-embedding cotree bags for planar bases,
//     Lemma 2's vortex extension for components holding internal vortex
//     nodes, a restricted base decomposition for positive-genus bases).
func AlmostEmbeddableShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, a *structure.AlmostEmbeddable) (*Result, error) {
	s := shortcut.Empty(g, t, p)
	info := map[string]int{}

	// Apex-containing parts get the entire tree.
	apexPart := make([]bool, p.NumParts())
	var apexParts []int
	for _, x := range a.Apices {
		if i := p.Of[x]; i != -1 && !apexPart[i] {
			apexPart[i] = true
			apexParts = append(apexParts, i)
		}
	}
	edges := s.Edges()
	for _, i := range apexParts {
		edges[i] = t.TreeEdgeIDs()
	}
	info["apexParts"] = len(apexParts)

	cells := BuildCells(g, t, a.Apices, a.VortexOf)
	info["cells"] = len(cells.Cells)
	for _, sp := range cells.Special {
		if sp {
			info["specialCells"]++
		}
	}
	assigned, stats := AssignCells(p, cells, apexPart)
	info["observedBeta"] = stats.ObservedBeta
	info["deferredParts"] = stats.DeferredParts

	// Global shortcuts: assigned cells contribute their internal tree edges
	// plus uplinks.
	cellTreeEdges := make([][]int, len(cells.Cells))
	for ci, vs := range cells.Cells {
		for _, v := range vs {
			pe := t.ParentEdge[v]
			if pe == -1 {
				continue
			}
			if cells.CellOf[t.Parent[v]] == ci {
				cellTreeEdges[ci] = append(cellTreeEdges[ci], pe)
			}
		}
		for _, r := range cells.Subtrees[ci] {
			if pe := t.ParentEdge[r]; pe != -1 {
				cellTreeEdges[ci] = append(cellTreeEdges[ci], pe) // uplink
			}
		}
	}
	for i := range assigned {
		for _, ci := range assigned[i] {
			edges[i] = append(edges[i], cellTreeEdges[ci]...)
		}
	}

	// Local shortcuts per tree component (cells before vortex merging).
	comps := treeComponents(g, t, cells)
	maxLocalWidth := 0
	for _, comp := range comps {
		width, err := localCellShortcut(g, t, p, a, s, comp, apexPart)
		if err != nil {
			return nil, fmt.Errorf("core: local cell shortcut: %w", err)
		}
		if width > maxLocalWidth {
			maxLocalWidth = width
		}
	}
	info["maxLocalWidth"] = maxLocalWidth

	// Re-normalize (dedupe/sort) through the constructor.
	ns, err := shortcut.NewNormalized(g, t, p, edges)
	if err != nil {
		return nil, fmt.Errorf("core: assembling almost-embeddable shortcut: %w", err)
	}
	return &Result{S: ns, M: ns.Measure(), Info: info}, nil
}

// treeComponents lists the connected components of T minus the apices (the
// unmerged cells): each is a sorted vertex list, traversed downward from the
// per-cell subtree roots through non-apex children.
func treeComponents(g *graph.Graph, t *graph.Tree, cells *CellPartition) [][]int {
	var comps [][]int
	for ci := range cells.Cells {
		for _, root := range cells.Subtrees[ci] {
			var comp []int
			stack := []int{root}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp = append(comp, v)
				for _, c := range t.Children[v] {
					if cells.CellOf[c] != -1 { // CellOf is -1 exactly at apices
						stack = append(stack, c)
					}
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	return comps
}

// localCellShortcut builds Lemma 9/10-style local shortcuts inside one tree
// component: clip parts, build a diameter-based decomposition, run the
// treewidth construction restricted to the component's tree, and merge the
// assignment back into s. Returns the folded width used (diagnostic).
func localCellShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, a *structure.AlmostEmbeddable, s *shortcut.Shortcut, comp []int, apexPart []bool) (int, error) {
	if len(comp) < 2 {
		return 0, nil
	}
	// Order component vertices: base vertices first, vortex internals after
	// (AddAttachedVertices requires attached vertices to come last).
	var baseVs, internalVs []int
	for _, v := range comp {
		if v < a.BaseN {
			baseVs = append(baseVs, v)
		} else if !a.IsApex(v) {
			internalVs = append(internalVs, v)
		}
	}
	ordered := append(append([]int(nil), baseVs...), internalVs...)
	local, oldToNew, edgeOrig := g.InducedSubgraph(ordered)
	// Local tree: restriction of T to the component (a subtree).
	lparent := make([]int, local.N())
	lparentEdge := make([]int, local.N())
	for i := range lparent {
		lparent[i] = -1
		lparentEdge[i] = -1
	}
	globalOfLocalEdge := make(map[int]int, len(edgeOrig))
	localOfGlobalEdge := make(map[int]int, len(edgeOrig))
	for lid, oid := range edgeOrig {
		globalOfLocalEdge[lid] = oid
		localOfGlobalEdge[oid] = lid
	}
	rootLocal := -1
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	for _, v := range ordered {
		pv := t.Parent[v]
		if pv != -1 && inComp[pv] {
			lparent[oldToNew[v]] = oldToNew[pv]
			leid, ok := localOfGlobalEdge[t.ParentEdge[v]]
			if !ok {
				return 0, fmt.Errorf("tree edge of %d missing from induced component", v)
			}
			lparentEdge[oldToNew[v]] = leid
		} else {
			rootLocal = oldToNew[v]
		}
	}
	ltree, err := graph.TreeFromParents(local, rootLocal, lparent, lparentEdge)
	if err != nil {
		return 0, fmt.Errorf("component tree: %w", err)
	}
	// Clip parts into the component.
	var sets [][]int
	var origin []int
	for i := 0; i < p.NumParts(); i++ {
		if apexPart[i] {
			continue
		}
		var localVs []int
		for _, v := range p.Sets[i] {
			if inComp[v] {
				localVs = append(localVs, oldToNew[v])
			}
		}
		if len(localVs) == 0 {
			continue
		}
		for _, c := range componentsWithin(local, localVs) {
			sets = append(sets, c)
			origin = append(origin, i)
		}
	}
	if len(sets) == 0 {
		return 0, nil
	}
	lp, err := partition.New(local, sets)
	if err != nil {
		return 0, fmt.Errorf("clipped parts: %w", err)
	}
	// Decomposition of the component.
	d, err := componentDecomposition(a, local, ltree, ordered, len(baseVs), oldToNew)
	if err != nil {
		return 0, err
	}
	res, err := shortcut.FromTreewidth(local, ltree, lp, d)
	if err != nil {
		return 0, err
	}
	edges := s.Edges()
	for si, ids := range res.S.Edges() {
		i := origin[si]
		for _, leid := range ids {
			edges[i] = append(edges[i], globalOfLocalEdge[leid])
		}
	}
	return res.FoldedWidth, nil
}

// componentDecomposition builds a diameter-flavored tree decomposition of a
// component: cotree bags over the induced base embedding when the base is
// planar (joining multiple base components under one tree), the restricted
// BaseTD for positive-genus bases, and in both cases Lemma 2's extension for
// vortex-internal nodes.
func componentDecomposition(a *structure.AlmostEmbeddable, local *graph.Graph, ltree *graph.Tree, ordered []int, numBase int, oldToNew []int) (*tw.Decomposition, error) {
	baseLocalVerts := make([]int, 0, numBase)
	for li := 0; li < numBase; li++ {
		baseLocalVerts = append(baseLocalVerts, li)
	}
	baseOnly, b2l, _ := local.InducedSubgraph(baseLocalVerts) // identity map, but fresh graph without vortex edges
	var baseDecomp *tw.Decomposition
	if a.BaseEmb.Genus() == 0 {
		// Induced embedding of the base restricted to this component.
		globalBase := make([]int, numBase)
		for li := 0; li < numBase; li++ {
			globalBase[li] = ordered[li]
		}
		emb, _, _ := embed.Induce(a.BaseEmb, globalBase)
		// emb is over a graph isomorphic to baseOnly with the same ordering
		// (InducedSubgraph preserves keep-order), so decompositions carry
		// over by index.
		d, err := cotreeDecompositionPerComponent(emb)
		if err != nil {
			return nil, err
		}
		baseDecomp = &tw.Decomposition{G: baseOnly, Bags: d.Bags, Adj: d.Adj}
		if err := baseDecomp.Validate(); err != nil {
			return nil, fmt.Errorf("base component decomposition: %w", err)
		}
	} else {
		if a.BaseTD == nil {
			return nil, fmt.Errorf("positive-genus base without BaseTD witness")
		}
		baseDecomp = restrictDecomposition(a.BaseTD, baseOnly, func(baseV int) int {
			lv := oldToNew[baseV]
			if lv == -1 || lv >= numBase {
				return -1
			}
			return b2l[lv]
		})
	}
	if local.N() == numBase {
		return &tw.Decomposition{G: local, Bags: baseDecomp.Bags, Adj: baseDecomp.Adj}, nil
	}
	// Vortex extension (Lemma 2): attach each internal node to all its
	// local neighbors.
	attach := make([][]int, local.N()-numBase)
	for li := numBase; li < local.N(); li++ {
		for _, arc := range local.Adj(li) {
			attach[li-numBase] = append(attach[li-numBase], arc.To)
		}
	}
	d := &tw.Decomposition{G: baseOnly, Bags: baseDecomp.Bags, Adj: baseDecomp.Adj}
	full, err := tw.AddAttachedVertices(d, local, numBase, attach)
	if err != nil {
		return nil, fmt.Errorf("vortex extension: %w", err)
	}
	return full, nil
}

// cotreeDecompositionPerComponent runs the cotree construction on each
// connected component of an embedded graph and joins the resulting bag trees
// under component 0's root (disjoint vertex sets keep everything coherent).
func cotreeDecompositionPerComponent(e *embed.Embedding) (*tw.Decomposition, error) {
	comps, _ := graph.Components(e.G)
	joined := &tw.Decomposition{G: e.G}
	var firstBagOfComp []int
	for _, comp := range comps {
		cEmb, cMap, _ := embed.Induce(e, comp)
		ct, err := graph.BFSTree(cEmb.G, 0)
		if err != nil {
			return nil, err
		}
		cd, err := tw.FromEmbeddingByCotree(cEmb, ct)
		if err != nil {
			return nil, err
		}
		// Remap bag vertices back into e.G indices.
		back := make([]int, cEmb.G.N())
		for _, v := range comp {
			back[cMap[v]] = v
		}
		offset := len(joined.Bags)
		firstBagOfComp = append(firstBagOfComp, offset)
		for _, bag := range cd.Bags {
			nb := make([]int, len(bag))
			for i, v := range bag {
				nb[i] = back[v]
			}
			joined.Bags = append(joined.Bags, nb)
			joined.Adj = append(joined.Adj, nil)
		}
		for bi, ns := range cd.Adj {
			for _, nj := range ns {
				joined.Adj[offset+bi] = append(joined.Adj[offset+bi], offset+nj)
			}
		}
	}
	// Join component bag-trees in a chain.
	for i := 1; i < len(firstBagOfComp); i++ {
		a, b := firstBagOfComp[i-1], firstBagOfComp[i]
		joined.Adj[a] = append(joined.Adj[a], b)
		joined.Adj[b] = append(joined.Adj[b], a)
	}
	if err := joined.Validate(); err != nil {
		return nil, fmt.Errorf("joined cotree decomposition: %w", err)
	}
	return joined, nil
}

// restrictDecomposition restricts a decomposition of the full base graph to
// an induced subgraph: vertices are mapped through mapv (-1 drops them).
// Restriction preserves validity.
func restrictDecomposition(d *tw.Decomposition, sub *graph.Graph, mapv func(int) int) *tw.Decomposition {
	out := &tw.Decomposition{G: sub, Bags: make([][]int, len(d.Bags)), Adj: make([][]int, len(d.Adj))}
	for bi, bag := range d.Bags {
		for _, v := range bag {
			if nv := mapv(v); nv != -1 {
				out.Bags[bi] = append(out.Bags[bi], nv)
			}
		}
	}
	for bi, ns := range d.Adj {
		out.Adj[bi] = append([]int(nil), ns...)
	}
	return out
}
