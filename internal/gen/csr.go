package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// CSR-direct generators: the million-node families emit graph.CSR without
// ever materializing [][]Arc adjacency or per-vertex slices. Each
// generator writes the edge slabs (U/V/W — part of the CSR itself) in the
// same edge-ID order as its Graph-building counterpart, then csrFromEdges
// assembles the arc slabs with one counting pass — O(n) auxiliary memory
// total, O(1) per vertex, regardless of m.

// csrFromEdges builds the offset and arc slabs over edge arrays already
// in their final CSR position. Arcs come out in ascending edge-ID order
// per vertex — the AddEdge port order — because edges are scanned in ID
// order.
//
//congest:pure
func csrFromEdges(n int, u, v []int32, w []float64) *graph.CSR {
	c := &graph.CSR{
		Off: make([]int32, n+1),
		Dst: make([]int32, 2*len(u)),
		AID: make([]int32, 2*len(u)),
		U:   u,
		V:   v,
		W:   w,
	}
	deg := make([]int32, n)
	for id := range u {
		deg[u[id]]++
		deg[v[id]]++
	}
	pos := int32(0)
	for i, d := range deg {
		c.Off[i] = pos
		pos += d
	}
	c.Off[n] = pos
	cursor := deg // reuse: cursor[v] counts arcs already placed at v
	for i := range cursor {
		cursor[i] = 0
	}
	for id := range u {
		a, b := u[id], v[id]
		pa := c.Off[a] + cursor[a]
		cursor[a]++
		c.Dst[pa], c.AID[pa] = b, int32(id)
		pb := c.Off[b] + cursor[b]
		cursor[b]++
		c.Dst[pb], c.AID[pb] = a, int32(id)
	}
	return c
}

// GridCSR emits the rows x cols grid directly in CSR form, byte-identical
// to graph.NewCSR(Grid(rows, cols).G): vertex (r,c) is r*cols+c, edges in
// row-major right-then-down order, unit weights.
//
//congest:pure
func GridCSR(rows, cols int) *graph.CSR {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("gen.GridCSR: bad dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	m := rows*(cols-1) + (rows-1)*cols
	u := make([]int32, 0, m)
	v := make([]int32, 0, m)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			at := int32(r*cols + c)
			if c+1 < cols {
				u = append(u, at)
				v = append(v, at+1)
			}
			if r+1 < rows {
				u = append(u, at)
				v = append(v, at+int32(cols))
			}
		}
	}
	return csrFromEdges(n, u, v, unitWeights(m))
}

// WheelCSR emits the wheel graph directly in CSR form, byte-identical to
// graph.NewCSR(Wheel(n).G): rim edges 0..n-2 then spokes from the hub
// (vertex n-1), unit weights.
//
//congest:pure
func WheelCSR(n int) *graph.CSR {
	if n < 4 {
		panic("gen.WheelCSR: need n >= 4")
	}
	rim := n - 1
	hub := int32(n - 1)
	u := make([]int32, 0, 2*rim)
	v := make([]int32, 0, 2*rim)
	for i := 0; i < rim; i++ {
		u = append(u, int32(i))
		v = append(v, int32((i+1)%rim))
	}
	for i := 0; i < rim; i++ {
		u = append(u, hub)
		v = append(v, int32(i))
	}
	return csrFromEdges(n, u, v, unitWeights(2*rim))
}

// WheelChainCSR emits a chain of `bags` wheels (each with `rim` rim
// vertices plus a hub) whose consecutive hubs are joined by bridge edges:
// a K5-minor-free, hop-heavy family (diameter Θ(bags)) for the scale
// pipeline, mirroring the E9/E13 clique-sum chains. Bag b occupies
// vertices b*(rim+1)..(b+1)*(rim+1)-1 with its hub last; per bag the edge
// order is rim, spokes, then the bridge back to the previous hub.
//
//congest:pure
func WheelChainCSR(bags, rim int) *graph.CSR {
	if bags < 1 || rim < 3 {
		panic(fmt.Sprintf("gen.WheelChainCSR: need bags >= 1, rim >= 3, got %d/%d", bags, rim))
	}
	stride := rim + 1
	n := bags * stride
	m := bags*2*rim + bags - 1
	u := make([]int32, 0, m)
	v := make([]int32, 0, m)
	for b := 0; b < bags; b++ {
		base := int32(b * stride)
		hub := base + int32(rim)
		for i := 0; i < rim; i++ {
			u = append(u, base+int32(i))
			v = append(v, base+int32((i+1)%rim))
		}
		for i := 0; i < rim; i++ {
			u = append(u, hub)
			v = append(v, base+int32(i))
		}
		if b > 0 {
			u = append(u, hub-int32(stride))
			v = append(v, hub)
		}
	}
	return csrFromEdges(n, u, v, unitWeights(m))
}

func unitWeights(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

// UniformWeightsCSR assigns each edge an independent uniform weight in
// [1, 2), exactly as UniformWeights does on a Graph: weights are drawn in
// edge-ID order, so the same rng seed yields the same weights on either
// representation. It mutates c and returns it for chaining.
func UniformWeightsCSR(c *graph.CSR, rng *rand.Rand) *graph.CSR {
	for id := range c.W {
		c.W[id] = 1 + rng.Float64()
	}
	return c
}

// DistinctWeightsCSR perturbs unit-ish weights the same way
// DistinctWeights does on a Graph: w[id] += id * 1e-9, keeping the
// canonical MST unique under plain weight comparison as well as under
// EdgeLess tie-breaking.
func DistinctWeightsCSR(c *graph.CSR) *graph.CSR {
	for id := range c.W {
		c.W[id] += float64(id) * 1e-9
	}
	return c
}
