package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
// The zero value is unusable; create with NewUnionFind.
type UnionFind struct {
	parent []int
	rank   []int8
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int8, n),
	}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Reset reinitializes u to n singleton sets in place, reusing the existing
// storage when large enough. Hot loops (shortcut block counting) call this
// instead of allocating a fresh forest per part.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) < n {
		u.parent = make([]int, n)
		u.rank = make([]int8, n)
	}
	u.parent = u.parent[:n]
	u.rank = u.rank[:n]
	for i := range u.parent {
		u.parent[i] = i
		u.rank[i] = 0
	}
}

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	return true
}
