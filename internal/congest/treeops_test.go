package congest_test

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestTreeBroadcast: one token broadcast down a tree — the single-token
// PipeBroadcast the priority bootstrap runs — finishes within height+2
// rounds.
func TestTreeBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(30+rng.Intn(40), 120, rng)
		root := rng.Intn(g.N())
		tr, err := graph.BFSTree(g, root)
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.PipeBroadcast(tr, []congest.Token{{Tag: 0, Value: 0xDEADBEEF}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.LastActiveRound > tr.Height()+2 {
			t.Fatalf("broadcast active for %d rounds, height %d", res.Stats.LastActiveRound, tr.Height())
		}
	}
}

func TestTreeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		values := make([]uint64, g.N())
		var want uint64
		for v := range values {
			values[v] = uint64(rng.Intn(1000))
			want += values[v]
		}
		got, stats, err := congest.TreeSum(tr, values)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sum %d want %d", got, want)
		}
		if stats.Messages != g.N()-1 {
			t.Fatalf("convergecast used %d messages, want n-1=%d", stats.Messages, g.N()-1)
		}
	}
}

// TestTreeMax: a single-tag Pipecast under CombineMax — the congestion
// convergecast of the cap search — returns the maximum with one message
// per tree edge.
func TestTreeMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		contrib := make([][]congest.Token, g.N())
		var want uint64
		for v := range contrib {
			x := uint64(rng.Intn(1000))
			contrib[v] = []congest.Token{{Tag: 0, Value: x}}
			want = max(want, x)
		}
		res, err := congest.Pipecast(tr, 1, contrib, congest.CombineMax)
		if err != nil {
			t.Fatal(err)
		}
		if res.Values[0] != want {
			t.Fatalf("max %d want %d", res.Values[0], want)
		}
		if res.Stats.Messages != g.N()-1 {
			t.Fatalf("convergecast used %d messages, want n-1=%d", res.Stats.Messages, g.N()-1)
		}
	}
}

func TestTreeSumLengthMismatch(t *testing.T) {
	g := gen.Path(4)
	tr, _ := graph.BFSTree(g, 0)
	if _, _, err := congest.TreeSum(tr, []uint64{1}); err == nil {
		t.Fatal("accepted short value slice")
	}
}

func TestTreeBroadcastOnStar(t *testing.T) {
	g := gen.Star(10)
	tr, _ := graph.BFSTree(g, 0)
	if _, err := congest.PipeBroadcast(tr, []congest.Token{{Tag: 0, Value: 7}}); err != nil {
		t.Fatal(err)
	}
}
