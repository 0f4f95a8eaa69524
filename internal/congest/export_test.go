package congest

import (
	"repro/internal/graph"
	"repro/internal/partition"
)

// BlockCountTokens is the cap search's per-guess block-count payload.
var BlockCountTokens = blockCountTokens

// ConstructState runs the flood-and-evict protocol fault free for budget
// rounds and returns every node's final forwarded set, in rank space.
func ConstructState(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap, budget int, prio []int32) ([][]int32, error) {
	final, _, err := runConstruct(g, t, p, cap, budget, prio, Options{MaxRounds: budget + 64})
	return final, err
}
