package congest

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// BlockCountTokens is the cap search's per-guess block-count payload.
var BlockCountTokens = blockCountTokens

// WipesAt reports whether node's restart at global round gr discards its
// state, as the engine decides it.
func (fp *FaultPlan) WipesAt(node, gr int) bool { return fp.wipesAt(node, gr) }

// ConstructTarget is the construction protocol's target at a node whose
// own part has rank own (-1 for none) and whose children admit rcv.
func ConstructTarget(own int32, rcv [][]int32, cap int) []int32 {
	st := conNode{own: own, tmp: make([]int32, 0, cap), spare: make([]int32, 0, cap)}
	return st.target(rcv, cap)
}

// NextConstructMessage is the construction protocol's choice of a node's
// next message: ConstructEvict or ConstructAdmit and the rank, or op 0.
var NextConstructMessage = nextConMessage

// The construction protocol's message ops.
const (
	ConstructAdmit = conAdmit
	ConstructEvict = conEvict
)

// ConstructState runs the flood-and-evict protocol fault free for budget
// rounds and returns every node's final forwarded set, in rank space.
func ConstructState(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap, budget int, prio []int32) ([][]int32, error) {
	want := shortcut.ConstructPrio(g, t, p, cap, prio).FloodState()
	final, _, err := runConstruct(g, t, p, cap, budget, prio, want, Options{MaxRounds: budget + 64})
	return final, err
}
