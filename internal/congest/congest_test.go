package congest_test

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// everyNode adapts one RoundFunc, shared by every node, into a SyncProtocol.
func everyNode(f congest.RoundFunc) congest.SyncProtocol {
	return func(*congest.Node) congest.RoundFunc { return f }
}

func TestRunPingPong(t *testing.T) {
	g := gen.Path(2)
	vals := make([]uint64, 2)
	step := func(n *congest.Node, msgs []congest.Message) bool {
		switch n.Round() {
		case 1:
			if n.ID == 0 {
				n.Send(0, congest.Words{42})
			}
		case 2:
			for _, m := range msgs {
				vals[n.ID] = m.Payload[0]
				n.Send(m.Port, congest.Words{m.Payload[0] + 1})
			}
		default:
			for _, m := range msgs {
				vals[n.ID] = m.Payload[0]
			}
			return false
		}
		return true
	}
	stats, err := congest.RunSync(g, everyNode(step), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vals[1] != 42 || vals[0] != 43 {
		t.Fatalf("vals %v", vals)
	}
	if stats.Messages != 2 {
		t.Fatalf("messages %d want 2", stats.Messages)
	}
}

func TestBandwidthEnforced(t *testing.T) {
	g := gen.Path(2)
	step := func(n *congest.Node, _ []congest.Message) bool {
		if n.Round() == 1 && n.ID == 0 {
			n.Send(0, congest.Words{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		}
		return n.Round() < 2
	}
	if _, err := congest.RunSync(g, everyNode(step), congest.Options{Bandwidth: 128}); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestDoubleSendRejected(t *testing.T) {
	g := gen.Path(2)
	step := func(n *congest.Node, _ []congest.Message) bool {
		if n.Round() == 1 && n.ID == 0 {
			n.Send(0, congest.Words{1})
			n.Send(0, congest.Words{2})
		}
		return n.Round() < 2
	}
	if _, err := congest.RunSync(g, everyNode(step), congest.Options{}); err == nil {
		t.Fatal("double send accepted")
	}
}

func TestMaxRoundsAborts(t *testing.T) {
	g := gen.Path(3)
	step := func(n *congest.Node, _ []congest.Message) bool {
		n.Broadcast(congest.Words{0})
		return true
	}
	if _, err := congest.RunSync(g, everyNode(step), congest.Options{MaxRounds: 10}); err == nil {
		t.Fatal("runaway protocol not aborted")
	}
}

func TestUnevenTermination(t *testing.T) {
	// Node v stops in round v+2; the engine must run until the last one
	// stops and not hang on the early leavers.
	g := gen.Cycle(6)
	step := func(n *congest.Node, _ []congest.Message) bool {
		return n.Round() <= n.ID+1
	}
	stats, err := congest.RunSync(g, everyNode(step), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 7 {
		t.Fatalf("rounds %d want 7", stats.Rounds)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	// Same protocol twice: stats must match exactly.
	e := gen.Grid(5, 5)
	run := func() congest.Stats {
		proto := func(nd *congest.Node) congest.RoundFunc {
			best := uint64(nd.ID)
			return func(n *congest.Node, msgs []congest.Message) bool {
				for _, m := range msgs {
					if m.Payload[0] < best {
						best = m.Payload[0]
					}
				}
				if n.Round() > 10 {
					return false
				}
				n.Broadcast(congest.Words{best})
				return true
			}
		}
		s, err := congest.RunSync(e.G, proto, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a, b)
	}
}

func TestDistributedBFSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		g := gen.ErdosRenyiConnected(40, 80, rng)
		d := graph.Diameter(g)
		parent, parentEdge, stats, err := congest.DistributedBFSSync(g, 0, d, congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := graph.BFS(g, 0)
		for v := 0; v < g.N(); v++ {
			if v == 0 {
				continue
			}
			if parent[v] == -1 {
				t.Fatalf("vertex %d unreached", v)
			}
			// Depths must match BFS (parents may differ on ties).
			if ref.Dist[v] != ref.Dist[parent[v]]+1 {
				t.Fatalf("vertex %d: parent %d not one level up", v, parent[v])
			}
			e := g.Edge(parentEdge[v])
			if !((e.U == v && e.V == parent[v]) || (e.V == v && e.U == parent[v])) {
				t.Fatalf("vertex %d: parent edge mismatch", v)
			}
		}
		if stats.Rounds > 4*d+64 {
			t.Fatalf("BFS took %d rounds for diameter %d", stats.Rounds, d)
		}
	}
}

func TestLeaderElect(t *testing.T) {
	g := gen.Cycle(12)
	leader, _, err := congest.LeaderElectSync(g, 12, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if leader != 0 {
		t.Fatalf("leader %d want 0", leader)
	}
}

func TestAggregateMinOnGridRows(t *testing.T) {
	e := gen.Grid(6, 8)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(e.G, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, e.G.N())
	for v := range keys {
		keys[v] = uint64(1000 - v)
	}
	s, _ := shortcut.ObliviousAuto(e.G, tr, p)
	res, err := congest.AggregateMin(e.G, p, s, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumParts(); i++ {
		want := uint64(1<<63 - 1)
		for _, v := range p.Sets[i] {
			if keys[v] < want {
				want = keys[v]
			}
		}
		if res.Mins[i] != want {
			t.Fatalf("part %d min %d want %d", i, res.Mins[i], want)
		}
	}
	if res.EffectiveRounds <= 0 {
		t.Fatal("no effective rounds recorded")
	}
}

func TestAggregateShortcutsBeatNoShortcuts(t *testing.T) {
	// The paper's wheel scenario: the graph has diameter 2 but the rim arcs
	// have diameter Θ(n/arcs). Without shortcuts each arc floods internally
	// (Θ(n/arcs) rounds); with tree-restricted shortcuts through the hub the
	// flood quiesces in O(quality) ≪ that.
	e := gen.Wheel(129) // 128 rim vertices + hub
	tr, _ := graph.BFSTree(e.G, 128)
	p, err := partition.RimArcs(e.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, e.G.N())
	for v := range keys {
		keys[v] = uint64(v * 7 % 1009)
	}
	sEmpty := shortcut.Empty(e.G, tr, p)
	rEmpty, err := congest.AggregateMin(e.G, p, sEmpty, keys)
	if err != nil {
		t.Fatal(err)
	}
	sGood, _ := shortcut.ObliviousAuto(e.G, tr, p)
	rGood, err := congest.AggregateMin(e.G, p, sGood, keys)
	if err != nil {
		t.Fatal(err)
	}
	if rGood.EffectiveRounds >= rEmpty.EffectiveRounds {
		t.Fatalf("shortcuts did not help: %d vs %d rounds",
			rGood.EffectiveRounds, rEmpty.EffectiveRounds)
	}
}

func TestStatsAdd(t *testing.T) {
	a := congest.Stats{Rounds: 3, Messages: 10, TotalBits: 640, MaxEdgeLoad: 2, LastActiveRound: 3}
	b := congest.Stats{Rounds: 4, Messages: 5, TotalBits: 320, MaxEdgeLoad: 5, LastActiveRound: 2}
	a.Add(b)
	if a.Rounds != 7 || a.Messages != 15 || a.MaxEdgeLoad != 5 || a.LastActiveRound != 5 {
		t.Fatalf("Add wrong: %+v", a)
	}
}
