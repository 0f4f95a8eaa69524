// Package embed implements combinatorial embeddings (rotation systems) of
// graphs on orientable surfaces: face tracing, Euler genus, tree-cotree
// decompositions, and the planarization ("cutting") operation of the paper's
// Appendix A (Lemma 11).
//
// Darts. Every edge with ID e yields two darts (directed half-edges):
// dart 2e points from Edge(e).U to Edge(e).V, dart 2e+1 points back.
// An embedding assigns each vertex a cyclic counterclockwise order of the
// darts leaving it (a rotation). Faces are the orbits of the permutation
// next(d) = rotSucc(twin(d)); with n vertices, m edges, f faces and c
// connected components, the total Euler genus is g = c - (n - m + f)/2 ...
// computed per component as g = (2 - n + m - f)/2.
package embed

import (
	"fmt"

	"repro/internal/graph"
)

// Twin returns the opposite dart of d.
func Twin(d int) int { return d ^ 1 }

// EdgeOf returns the edge ID underlying dart d.
func EdgeOf(d int) int { return d / 2 }

// Tail returns the vertex a dart leaves from.
func Tail(g *graph.Graph, d int) int {
	e := g.Edge(d / 2)
	if d%2 == 0 {
		return e.U
	}
	return e.V
}

// Head returns the vertex a dart points to.
func Head(g *graph.Graph, d int) int { return Tail(g, Twin(d)) }

// Embedding is a rotation system on a graph. The zero value is unusable;
// construct with New.
type Embedding struct {
	G   *graph.Graph
	rot [][]int // rot[v]: darts leaving v in counterclockwise order
	pos []int   // pos[d]: index of dart d within rot[Tail(d)]
}

// New validates and wraps a rotation system: rot[v] must be a permutation of
// the darts whose tail is v.
func New(g *graph.Graph, rot [][]int) (*Embedding, error) {
	if len(rot) != g.N() {
		return nil, fmt.Errorf("embed: rotation has %d vertices, graph has %d", len(rot), g.N())
	}
	e := &Embedding{G: g, rot: rot, pos: make([]int, 2*g.M())}
	seen := g.AcquireScratch() // dart-indexed; 2M slots
	defer g.ReleaseScratch(seen)
	seen.Grow(2 * g.M())
	total := 0
	for v, ds := range rot {
		for i, d := range ds {
			if d < 0 || d >= 2*g.M() {
				return nil, fmt.Errorf("embed: vertex %d lists invalid dart %d", v, d)
			}
			if Tail(g, d) != v {
				return nil, fmt.Errorf("embed: dart %d (tail %d) listed at vertex %d", d, Tail(g, d), v)
			}
			if !seen.Visit(d) {
				return nil, fmt.Errorf("embed: dart %d listed twice", d)
			}
			total++
			e.pos[d] = i
		}
	}
	if total != 2*g.M() {
		for d := 0; d < 2*g.M(); d++ {
			if !seen.Has(d) {
				return nil, fmt.Errorf("embed: dart %d missing from rotation", d)
			}
		}
	}
	return e, nil
}

// NewTrusted wraps a rotation system that is correct by construction (a
// generator's own output), skipping New's per-dart validation: it only
// builds the dart-position index. Surgery results and externally supplied
// rotations must keep using New.
func NewTrusted(g *graph.Graph, rot [][]int) *Embedding {
	e := &Embedding{G: g, rot: rot, pos: make([]int, 2*g.M())}
	for _, ds := range rot {
		for i, d := range ds {
			e.pos[d] = i
		}
	}
	return e
}

// Rotation returns the rotation at v (not to be modified).
func (e *Embedding) Rotation(v int) []int { return e.rot[v] }

// Succ returns the next dart after d in the rotation at d's tail.
func (e *Embedding) Succ(d int) int {
	ds := e.rot[Tail(e.G, d)]
	return ds[(e.pos[d]+1)%len(ds)]
}

// Pred returns the previous dart before d in the rotation at d's tail.
func (e *Embedding) Pred(d int) int {
	ds := e.rot[Tail(e.G, d)]
	return ds[(e.pos[d]-1+len(ds))%len(ds)]
}

// FaceNext returns the next dart along the face to the left of d.
func (e *Embedding) FaceNext(d int) int { return e.Succ(Twin(d)) }

// Faces returns all faces as dart cycles, plus faceOf mapping each dart to
// its face index.
func (e *Embedding) Faces() (faces [][]int, faceOf []int) {
	m2 := 2 * e.G.M()
	faceOf = make([]int, m2)
	for i := range faceOf {
		faceOf[i] = -1
	}
	for d0 := 0; d0 < m2; d0++ {
		if faceOf[d0] != -1 {
			continue
		}
		idx := len(faces)
		var cyc []int
		for d := d0; faceOf[d] == -1; d = e.FaceNext(d) {
			faceOf[d] = idx
			cyc = append(cyc, d)
		}
		faces = append(faces, cyc)
	}
	return faces, faceOf
}

// Genus returns the total Euler genus of the embedding, summed over
// connected components: for each component, g = (2 - n + m - f) / 2.
// A planar embedding has genus 0.
func (e *Embedding) Genus() int {
	comps, of := graph.Components(e.G)
	nComp := make([]int, len(comps))
	mComp := make([]int, len(comps))
	fComp := make([]int, len(comps))
	for i, c := range comps {
		nComp[i] = len(c)
	}
	for id := 0; id < e.G.M(); id++ {
		mComp[of[e.G.Edge(id).U]]++
	}
	faces, _ := e.Faces()
	for _, f := range faces {
		fComp[of[Tail(e.G, f[0])]]++
	}
	total := 0
	for i := range comps {
		f := fComp[i]
		if mComp[i] == 0 {
			f = 1 // an isolated vertex sits on a sphere with one face
		}
		euler := nComp[i] - mComp[i] + f
		total += (2 - euler) / 2
	}
	return total
}

// FaceVertices returns the vertex sequence around face (tails of its darts).
func (e *Embedding) FaceVertices(face []int) []int {
	out := make([]int, len(face))
	for i, d := range face {
		out[i] = Tail(e.G, d)
	}
	return out
}

// Validate re-checks rotation consistency; used after surgery operations.
func (e *Embedding) Validate() error {
	_, err := New(e.G, e.rot)
	return err
}

// InsertDartAfter splices dart d into the rotation of its tail vertex,
// immediately after dart after (which must share the tail). Used by
// generators that grow embeddings incrementally.
func (e *Embedding) InsertDartAfter(d, after int) {
	v := Tail(e.G, d)
	if Tail(e.G, after) != v {
		panic(fmt.Sprintf("embed.InsertDartAfter: darts %d and %d have different tails", d, after))
	}
	e.growPos(d)
	i := e.pos[after]
	e.rot[v] = append(e.rot[v], 0)
	copy(e.rot[v][i+2:], e.rot[v][i+1:])
	e.rot[v][i+1] = d
	for j := i + 1; j < len(e.rot[v]); j++ {
		e.pos[e.rot[v][j]] = j
	}
}

// AppendDart appends dart d to the end of its tail vertex's rotation. Used
// for the first darts at fresh vertices.
func (e *Embedding) AppendDart(d int) {
	v := Tail(e.G, d)
	e.growPos(d)
	if e.rot[v] == nil {
		// Fresh vertex: one allocation covers the common small rotations.
		e.rot[v] = make([]int, 0, 4)
	}
	e.rot[v] = append(e.rot[v], d)
	e.pos[d] = len(e.rot[v]) - 1
}

func (e *Embedding) growPos(d int) {
	for len(e.pos) <= d {
		e.pos = append(e.pos, 0)
	}
	for len(e.rot) < e.G.N() {
		e.rot = append(e.rot, nil)
	}
}

// ReserveDarts pre-sizes the embedding's internal tables for a graph that
// will grow to m edges (2m darts), so incremental generators avoid repeated
// growth.
func (e *Embedding) ReserveDarts(m int) {
	if cap(e.pos) < 2*m {
		np := make([]int, len(e.pos), 2*m)
		copy(np, e.pos)
		e.pos = np
	}
}
