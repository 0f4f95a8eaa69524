package congest_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/gen"
)

func TestWordsBits(t *testing.T) {
	if (congest.Words{1, 2, 3}).Bits() != 192 {
		t.Fatal("Bits wrong")
	}
	if (congest.Words{}).Bits() != 0 {
		t.Fatal("empty Bits wrong")
	}
}

func TestFloat64WordRoundtrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true // NaN != NaN; encoding is still stable
		}
		return congest.WordFloat64(congest.Float64Word(x)) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64WordOrderPreservingForPositive(t *testing.T) {
	// Positive float order matches unsigned bit order — the property the
	// MST key encoding relies on.
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		return (x < y) == (congest.Float64Word(x) < congest.Float64Word(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLastActiveRoundSemantics(t *testing.T) {
	// A protocol that sends only in round 1 and then idles for 5 rounds:
	// LastActiveRound must be small even though Rounds is larger.
	g := gen.Path(3)
	step := func(n *congest.Node, _ []congest.Message) bool {
		if n.Round() == 1 && n.ID == 0 {
			n.Broadcast(congest.Words{1})
		}
		return n.Round() <= 6
	}
	stats, err := congest.RunSync(g, everyNode(step), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LastActiveRound > 2 {
		t.Fatalf("LastActiveRound %d, expected <= 2", stats.LastActiveRound)
	}
	if stats.Rounds < 6 {
		t.Fatalf("Rounds %d, expected >= 6", stats.Rounds)
	}
}

func TestNodeAccessors(t *testing.T) {
	g := gen.Star(4)
	// RoundFuncs run on shard workers, so report with Errorf (safe from any
	// goroutine) rather than Fatalf.
	step := func(n *congest.Node, _ []congest.Message) bool {
		if n.ID == 0 {
			if n.Degree() != 3 {
				t.Errorf("center degree %d want 3", n.Degree())
			}
			for port := 0; port < n.Degree(); port++ {
				nb := n.Neighbor(port)
				e := g.Edge(n.PortEdge(port))
				if !((e.U == 0 && e.V == nb) || (e.V == 0 && e.U == nb)) {
					t.Errorf("port %d maps to neighbor %d over edge %+v", port, nb, e)
				}
			}
		}
		if n.NumV != 4 {
			t.Errorf("node %d: NumV %d want 4", n.ID, n.NumV)
		}
		return n.Round() < 2
	}
	if _, err := congest.RunSync(g, everyNode(step), congest.Options{}); err != nil {
		t.Fatal(err)
	}
}
