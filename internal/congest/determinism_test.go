package congest_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// transcriptRun executes a flooding protocol and returns a full transcript:
// every message every node received, in delivery order, plus the final
// stats. The engine promises this is a pure function of the graph and
// protocol, independent of GOMAXPROCS and scheduling.
func transcriptRun(t *testing.T, g *graph.Graph, rounds int) string {
	t.Helper()
	sb := make([]strings.Builder, g.N())
	proto := func(nd *congest.Node) congest.RoundFunc {
		best := uint64(nd.ID)
		return func(n *congest.Node, msgs []congest.Message) bool {
			for _, m := range msgs {
				fmt.Fprintf(&sb[n.ID], "r%d p%d f%d e%d w%d;", n.Round(), m.Port, m.From, m.Edge, m.Payload[0])
				if m.Payload[0] < best {
					best = m.Payload[0]
				}
			}
			if n.Round() > rounds {
				fmt.Fprintf(&sb[n.ID], "final=%d", best)
				return false
			}
			n.Broadcast(congest.Words{best})
			return true
		}
	}
	stats, err := congest.RunSync(g, proto, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for v := range sb {
		fmt.Fprintf(&out, "node %d: %s\n", v, sb[v].String())
	}
	fmt.Fprintf(&out, "stats: %+v\n", stats)
	return out.String()
}

// TestTranscriptsIdenticalAcrossGOMAXPROCS runs the same CONGEST program
// under GOMAXPROCS=1 and GOMAXPROCS=8 and requires byte-identical
// transcripts and results: the barrier-synchronous scheduler's sharding
// must not leak into observable behavior.
func TestTranscriptsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	e := gen.Grid(7, 9)
	prev := runtime.GOMAXPROCS(1)
	one := transcriptRun(t, e.G, 12)
	runtime.GOMAXPROCS(8)
	eight := transcriptRun(t, e.G, 12)
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("transcripts differ between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
}

// TestAggregationIdenticalAcrossGOMAXPROCS runs the round-driven
// aggregation protocol (the RunSync path) at both GOMAXPROCS settings and
// compares full results.
func TestAggregationIdenticalAcrossGOMAXPROCS(t *testing.T) {
	e := gen.Wheel(65)
	tr, err := graph.BFSTree(e.G, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.RimArcs(e.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, e.G.N())
	for v := range keys {
		keys[v] = uint64(v*2654435761 + 17)
	}
	s, _ := shortcut.ObliviousAuto(e.G, tr, p)
	run := func() string {
		res, err := congest.AggregateMin(e.G, p, s, keys)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %d %d %+v", res.Mins, res.EffectiveRounds, res.Budget, res.Stats)
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	eight := run()
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("aggregation results differ:\nGOMAXPROCS=1: %s\nGOMAXPROCS=8: %s", one, eight)
	}
}

// TestDistributedBFSIdenticalAcrossGOMAXPROCS runs the BFS-tree election
// protocol at GOMAXPROCS 1 and 8 and requires identical parent and
// parent-edge arrays plus identical stats: the lowest-port tie-break for
// simultaneous announcements must be a pure function of the graph, not of
// shard scheduling. The wheel is adversarial for this — every rim vertex
// hears the apex and a rim neighbor in the same round — and the grid
// exercises four-way ties. Run under -race in CI, this also checks the
// result arrays against concurrent shard writes.
func TestDistributedBFSIdenticalAcrossGOMAXPROCS(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		root int
	}{
		{"grid", gen.Grid(9, 7).G, 0},
		{"wheel", gen.Wheel(41).G, 40},
	} {
		diam := graph.Diameter(tc.g)
		run := func() string {
			parent, parentEdge, stats, err := congest.DistributedBFSSync(tc.g, tc.root, diam, congest.Options{})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return fmt.Sprintf("%v %v %+v", parent, parentEdge, stats)
		}
		prev := runtime.GOMAXPROCS(1)
		one := run()
		runtime.GOMAXPROCS(8)
		eight := run()
		runtime.GOMAXPROCS(prev)
		if one != eight {
			t.Fatalf("%s: BFS results differ:\nGOMAXPROCS=1: %s\nGOMAXPROCS=8: %s", tc.name, one, eight)
		}
	}
}
