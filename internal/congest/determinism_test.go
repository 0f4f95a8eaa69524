package congest_test

import (
	"crypto/sha256"
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

// sparseSelect reports whether node v sends on port p in its local round
// r: a splitmix64 hash of (v, r, p) picks about one port-round in three,
// so most receivers get no mail in a given round.
func sparseSelect(v, r, p int) bool {
	h := uint64(v)<<40 ^ uint64(r)<<20 ^ uint64(p) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return (h^h>>31)%3 == 0
}

// sparseProto is a protocol with sparse, irregular traffic: node v sends
// on port p in local round r only when sparseSelect(v, r, p), and exits
// in local round last(v) with that round's sends still queued, which the
// engine discards. Its factory queues a send as well, which the engine
// discards at the node's first round, also when a wiped restart rebuilds
// the node. seen, when non-nil, observes every inbox.
func sparseProto(last func(v int) int, seen func(n *congest.Node, msgs []congest.Message)) congest.SyncProtocol {
	step := congest.RoundFunc(func(n *congest.Node, msgs []congest.Message) bool {
		if seen != nil {
			seen(n, msgs)
		}
		for p := 0; p < n.Degree(); p++ {
			if sparseSelect(n.ID, n.Round(), p) {
				n.Send(p, congest.Words{uint64(n.ID)<<20 | uint64(n.Round())})
			}
		}
		return n.Round() < last(n.ID)
	})
	return func(nd *congest.Node) congest.RoundFunc {
		if nd.Degree() > 0 {
			nd.Send(0, congest.Words{1<<40 | uint64(nd.ID)})
		}
		return step
	}
}

// sparseTranscript runs sparseProto with staggered exits (local rounds 6
// to 16) and returns every delivery at every node, in order, plus the
// final stats.
func sparseTranscript(t *testing.T, g *graph.Graph, plan *congest.FaultPlan) string {
	t.Helper()
	sb := make([]strings.Builder, g.N())
	proto := sparseProto(func(v int) int { return 6 + v*5%11 }, func(n *congest.Node, msgs []congest.Message) {
		for _, m := range msgs {
			fmt.Fprintf(&sb[n.ID], "r%d p%d f%d e%d w%x;", n.Round(), m.Port, m.From, m.Edge, m.Payload[0])
		}
	})
	stats, err := congest.RunSync(g, proto, congest.Options{MaxRounds: 64, Faults: plan})
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

// TestSparseTranscriptsIdenticalAcrossGOMAXPROCS drives the engine's
// delivery with sparse traffic: stale inboxes with no new mail, nodes that
// exit with sends queued, discarded factory sends (also from a wiped
// restart), and mail-bitmap words shared across shard boundaries — the
// 63-vertex grid fits in one word, and on the 65-vertex wheel every shard
// sends to the hub. Each run, plain and under transcriptFaultPlan, must
// give the same transcript at GOMAXPROCS 1, 2 and 8, and that
// transcript's digest is pinned, so a delivery change that moves any
// inbox, exit or fault counter fails here even if it moves it the same
// way at every GOMAXPROCS.
func TestSparseTranscriptsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	plan := transcriptFaultPlan()
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		plan   *congest.FaultPlan
		digest string
	}{
		{"grid", gen.Grid(7, 9).G, nil, "408d8a3f4c6fb19518d047443c42076579d6fa3efc56f0b6b88be93d58b3342b"},
		{"grid/faulted", gen.Grid(7, 9).G, plan, "cd4709afa8f1e7b5094d8cb5b98855c4107e73633d9e115bd1685658b393fcc8"},
		{"wheel", gen.Wheel(65).G, nil, "4b1f975dd9dfda4d5c73ce9faf0524f48cc242ff69bde290f0956bf7804a364b"},
		{"wheel/faulted", gen.Wheel(65).G, plan, "65e4b246e3be9b47961354f95382ea0e8c70d799d5371d171a4886eaecb84be2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			one := sparseTranscript(t, tc.g, tc.plan)
			for _, procs := range []int{2, 8} {
				runtime.GOMAXPROCS(procs)
				if got := sparseTranscript(t, tc.g, tc.plan); got != one {
					t.Fatalf("transcripts differ between GOMAXPROCS=1 and GOMAXPROCS=%d:\n--- 1 ---\n%s\n--- %d ---\n%s", procs, one, procs, got)
				}
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(one))); got != tc.digest {
				t.Errorf("transcript digest %s, want %s:\n%s", got, tc.digest, one)
			}
		})
	}
}
