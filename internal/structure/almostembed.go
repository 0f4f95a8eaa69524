package structure

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/tw"
)

// Vortex records one vortex (Definition 4) attached to a face of the base
// embedding: internal vortex nodes, each covering an arc of the boundary
// cycle, connected to boundary vertices within their arc and optionally to
// arc-adjacent internal nodes.
type Vortex struct {
	Boundary []int // boundary cycle vertices in cyclic order (base vertices)
	Internal []int // internal vortex node IDs (in the full graph)
	// Arc[i] = [start, length]: internal node i covers boundary positions
	// start, start+1, ..., start+length-1 (mod len(Boundary)).
	Arc [][2]int
	// Depth is the declared vortex depth: no boundary vertex may be covered
	// by more than Depth arcs.
	Depth int
}

// CoversPosition reports whether internal node index i covers boundary
// position p.
func (v *Vortex) CoversPosition(i, p int) bool {
	n := len(v.Boundary)
	start, length := v.Arc[i][0], v.Arc[i][1]
	diff := (p - start + n) % n
	return diff < length
}

// AlmostEmbeddable is a (Q, Genus, K, L)-almost-embeddable structure
// (Definition 5): the full graph G consists of a base graph embedded on a
// surface of genus at most Genus (vertices 0..BaseN-1), at most L vortices
// of depth at most K added to faces of the base, and Q apices connected
// arbitrarily.
type AlmostEmbeddable struct {
	G        *graph.Graph
	BaseN    int              // vertices 0..BaseN-1 form the embedded base
	Base     *graph.Graph     // the base graph itself
	BaseEmb  *embed.Embedding // embedding witness of the base
	Vortices []Vortex
	Apices   []int // apex vertex IDs in G
	Q        int   // declared apex bound
	Genus    int   // declared genus bound
	K        int   // declared vortex depth bound
	L        int   // declared vortex count bound

	// BaseTD is an optional tree-decomposition witness of the base graph,
	// used by the shortcut construction when the base is not planar (where
	// the cotree construction does not apply). Generators for positive-genus
	// bases populate it.
	BaseTD *tw.Decomposition
}

// IsApex reports whether vertex v of G is an apex.
func (a *AlmostEmbeddable) IsApex(v int) bool {
	for _, x := range a.Apices {
		if x == v {
			return true
		}
	}
	return false
}

// VortexOf returns the index of the vortex containing internal node v, or
// -1 if v is not an internal vortex node.
func (a *AlmostEmbeddable) VortexOf(v int) int {
	for vi := range a.Vortices {
		for _, u := range a.Vortices[vi].Internal {
			if u == v {
				return vi
			}
		}
	}
	return -1
}

// Validate checks the structure against Definition 5:
//   - the base embedding is valid with genus at most Genus;
//   - base vertices come first, then vortex internals, then apices, jointly
//     covering G;
//   - at most L vortices, each of depth at most K, each attached to a face
//     of the base embedding, with internal-node edges staying inside arcs or
//     between arc-adjacent internals (Definition 4);
//   - at most Q apices, whose edges are unconstrained;
//   - base edges of G match the base graph.
func (a *AlmostEmbeddable) Validate() error {
	if a.Base.N() != a.BaseN {
		return fmt.Errorf("structure: base graph has %d vertices, BaseN=%d", a.Base.N(), a.BaseN)
	}
	if err := a.BaseEmb.Validate(); err != nil {
		return fmt.Errorf("structure: base embedding: %w", err)
	}
	if g := a.BaseEmb.Genus(); g > a.Genus {
		return fmt.Errorf("structure: base genus %d exceeds declared %d", g, a.Genus)
	}
	if len(a.Vortices) > a.L {
		return fmt.Errorf("structure: %d vortices exceed L=%d", len(a.Vortices), a.L)
	}
	if len(a.Apices) > a.Q {
		return fmt.Errorf("structure: %d apices exceed Q=%d", len(a.Apices), a.Q)
	}
	// Vertex roles partition G.
	role := make([]int, a.G.N()) // 0 unset, 1 base, 2 vortex, 3 apex
	for v := 0; v < a.BaseN; v++ {
		role[v] = 1
	}
	for vi := range a.Vortices {
		for _, v := range a.Vortices[vi].Internal {
			if v < 0 || v >= a.G.N() || role[v] != 0 {
				return fmt.Errorf("structure: vortex %d internal node %d invalid or reused", vi, v)
			}
			role[v] = 2
		}
	}
	for _, v := range a.Apices {
		if v < 0 || v >= a.G.N() || role[v] != 0 {
			return fmt.Errorf("structure: apex %d invalid or reused", v)
		}
		role[v] = 3
	}
	for v, r := range role {
		if r == 0 {
			return fmt.Errorf("structure: vertex %d has no role", v)
		}
	}
	// Vortex structure.
	boundarySet := make([]map[int]int, len(a.Vortices)) // vertex -> position
	faceOK := a.vortexFaces()
	for vi := range a.Vortices {
		vx := &a.Vortices[vi]
		if len(vx.Internal) != len(vx.Arc) {
			return fmt.Errorf("structure: vortex %d has %d internals, %d arcs", vi, len(vx.Internal), len(vx.Arc))
		}
		boundarySet[vi] = make(map[int]int, len(vx.Boundary))
		for p, v := range vx.Boundary {
			if v < 0 || v >= a.BaseN {
				return fmt.Errorf("structure: vortex %d boundary vertex %d not in base", vi, v)
			}
			boundarySet[vi][v] = p
		}
		if !faceOK[vi] {
			return fmt.Errorf("structure: vortex %d boundary is not a face of the base embedding", vi)
		}
		// Depth: no boundary position covered by more than Depth arcs.
		if vx.Depth > 0 {
			cover := make([]int, len(vx.Boundary))
			for i := range vx.Internal {
				for j := 0; j < vx.Arc[i][1]; j++ {
					cover[(vx.Arc[i][0]+j)%len(vx.Boundary)]++
				}
			}
			for p, cvr := range cover {
				if cvr > vx.Depth {
					return fmt.Errorf("structure: vortex %d position %d covered %d > depth %d", vi, p, cvr, vx.Depth)
				}
			}
			if vx.Depth > a.K {
				return fmt.Errorf("structure: vortex %d depth %d exceeds K=%d", vi, vx.Depth, a.K)
			}
		}
	}
	// Edge discipline.
	internalIdx := make(map[int][2]int) // vertex -> (vortex, internal index)
	for vi := range a.Vortices {
		for ii, v := range a.Vortices[vi].Internal {
			internalIdx[v] = [2]int{vi, ii}
		}
	}
	baseEdges := 0
	for id := 0; id < a.G.M(); id++ {
		e := a.G.Edge(id)
		ru, rv := role[e.U], role[e.V]
		switch {
		case ru == 3 || rv == 3:
			// Apex edges are unconstrained.
		case ru == 1 && rv == 1:
			if !a.Base.HasEdge(e.U, e.V) {
				return fmt.Errorf("structure: base edge {%d,%d} missing from base graph", e.U, e.V)
			}
			baseEdges++
		case ru == 2 && rv == 2:
			iu, iv := internalIdx[e.U], internalIdx[e.V]
			if iu[0] != iv[0] {
				return fmt.Errorf("structure: edge {%d,%d} joins different vortices", e.U, e.V)
			}
			if !a.arcsAdjacent(iu[0], iu[1], iv[1]) {
				return fmt.Errorf("structure: internal nodes %d,%d of vortex %d have non-touching arcs", e.U, e.V, iu[0])
			}
		case ru == 2 || rv == 2:
			in, b := e.U, e.V
			if rv == 2 {
				in, b = e.V, e.U
			}
			idx := internalIdx[in]
			p, ok := boundarySet[idx[0]][b]
			if !ok {
				return fmt.Errorf("structure: internal node %d connects to non-boundary vertex %d", in, b)
			}
			if !a.Vortices[idx[0]].CoversPosition(idx[1], p) {
				return fmt.Errorf("structure: internal node %d connects outside its arc (vertex %d)", in, b)
			}
		default:
			return fmt.Errorf("structure: unexpected edge role combination %d,%d", ru, rv)
		}
	}
	if baseEdges != a.Base.M() {
		return fmt.Errorf("structure: G has %d base edges, base graph has %d", baseEdges, a.Base.M())
	}
	return nil
}

// vortexFaces checks each vortex boundary against the faces of the base
// embedding, returning per-vortex success.
func (a *AlmostEmbeddable) vortexFaces() []bool {
	faces, _ := a.BaseEmb.Faces()
	ok := make([]bool, len(a.Vortices))
	for vi := range a.Vortices {
		want := a.Vortices[vi].Boundary
		for _, f := range faces {
			vs := a.BaseEmb.FaceVertices(f)
			if cyclicEqual(vs, want) {
				ok[vi] = true
				break
			}
		}
	}
	return ok
}

// arcsAdjacent reports whether arcs i and j of vortex vi share a boundary
// vertex (Definition 4 allows edges between such internal nodes).
func (a *AlmostEmbeddable) arcsAdjacent(vi, i, j int) bool {
	vx := &a.Vortices[vi]
	n := len(vx.Boundary)
	for t := 0; t < vx.Arc[i][1]; t++ {
		p := (vx.Arc[i][0] + t) % n
		if vx.CoversPosition(j, p) {
			return true
		}
	}
	return false
}

// cyclicEqual reports whether b is a rotation (in either direction) of a.
func cyclicEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	n := len(a)
	if n == 0 {
		return true
	}
	for shift := 0; shift < n; shift++ {
		fwd, bwd := true, true
		for i := 0; i < n; i++ {
			if a[(shift+i)%n] != b[i] {
				fwd = false
			}
			if a[(shift-i+2*n)%n] != b[i] {
				bwd = false
			}
			if !fwd && !bwd {
				break
			}
		}
		if fwd || bwd {
			return true
		}
	}
	return false
}
