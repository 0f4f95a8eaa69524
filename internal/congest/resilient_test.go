package congest_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testPlan is a connected-preserving fault plan: finite drop horizon,
// finite outages, finite crash windows — every retry past the horizon runs
// clean, so the resilient protocols must converge.
func testPlan(g *graph.Graph) congest.FaultPlan {
	return congest.FaultPlan{
		Seed:      41,
		DropProb:  0.2,
		DropUntil: 200,
		LinkDowns: []congest.LinkDown{{Edge: 0, From: 1, To: 30}, {Edge: g.M() - 1, From: 4, To: 16}},
		Crashes: []congest.Crash{
			{Node: g.N() / 3, Round: 2, Restart: 14},
			{Node: g.N() - 1, Round: 6, Restart: 18, Wipe: true},
		},
	}
}

// TestAdversaryElectionAndBFSMatchFaultFree pins the tentpole convergence
// property at the primitive level: under a connectivity-preserving fault
// plan, the resilient election and BFS reach the identical fixed point as
// the fault-free protocols.
func TestAdversaryElectionAndBFSMatchFaultFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(6, 7).G},
		{"wheel", gen.Wheel(33).G},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diam := 2*graph.DiameterApprox(tc.g) + 2
			wantLeader, _, err := congest.LeaderElectSync(tc.g, diam, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantParent, wantEdge, _, err := congest.DistributedBFSSync(tc.g, wantLeader, diam, congest.Options{})
			if err != nil {
				t.Fatal(err)
			}
			adv := congest.NewAdversary(testPlan(tc.g))
			leader, _, err := adv.LeaderElect(tc.g, diam)
			if err != nil {
				t.Fatal(err)
			}
			if leader != wantLeader {
				t.Fatalf("faulted election chose %d, fault-free %d", leader, wantLeader)
			}
			parent, parentEdge, _, err := adv.BFS(tc.g, leader, diam)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantParent {
				if parent[v] != wantParent[v] || parentEdge[v] != wantEdge[v] {
					t.Fatalf("vertex %d: faulted BFS (%d,%d), fault-free (%d,%d)",
						v, parent[v], parentEdge[v], wantParent[v], wantEdge[v])
				}
			}
			// The canonical sequential oracle agrees too.
			cp, ce, err := congest.CanonicalBFSParents(tc.g, leader)
			if err != nil {
				t.Fatal(err)
			}
			for v := range cp {
				if parent[v] != cp[v] || parentEdge[v] != ce[v] {
					t.Fatalf("vertex %d: BFS (%d,%d) disagrees with canonical oracle (%d,%d)",
						v, parent[v], parentEdge[v], cp[v], ce[v])
				}
			}
		})
	}
}

// TestAdversaryRetriesThenConverges forces first attempts to fail — total
// loss until a horizon — and requires the retry loop to push the protocol
// past the horizon into a clean window and still produce the fault-free
// answer, booking at least one retry.
func TestAdversaryRetriesThenConverges(t *testing.T) {
	g := gen.Cycle(8)
	diam := 2*graph.DiameterApprox(g) + 2
	adv := congest.NewAdversary(congest.FaultPlan{Seed: 3, DropProb: 1, DropUntil: 50})
	leader, stats, err := adv.LeaderElect(g, diam)
	if err != nil {
		t.Fatal(err)
	}
	if leader != 0 {
		t.Fatalf("elected %d, want 0", leader)
	}
	if adv.Retries == 0 {
		t.Fatal("total loss until round 50 cost no retries — the adversary never engaged")
	}
	if stats.Dropped == 0 {
		t.Fatalf("no drops recorded across attempts: %+v", stats)
	}
	if adv.Consumed() <= 50 {
		t.Fatalf("adversary timeline consumed only %d rounds", adv.Consumed())
	}
}

// TestRetryableAndIncompleteError pins the typed-error satellite: the
// IncompleteError carries protocol context, still satisfies
// errors.Is(err, ErrIncomplete), and both abort and incompleteness are
// retryable while plain errors are not.
func TestRetryableAndIncompleteError(t *testing.T) {
	ie := &congest.IncompleteError{Protocol: "BFS", Rounds: 12, Budget: 10, Detail: "x"}
	if !errors.Is(ie, congest.ErrIncomplete) {
		t.Fatal("IncompleteError does not unwrap to ErrIncomplete")
	}
	for _, s := range []string{"BFS", "10", "12"} {
		if !strings.Contains(ie.Error(), s) {
			t.Fatalf("IncompleteError message %q misses %q", ie.Error(), s)
		}
	}
	if !congest.Retryable(ie) {
		t.Fatal("IncompleteError not retryable")
	}
	if !congest.Retryable(fmt.Errorf("wrap: %w", congest.ErrAborted)) {
		t.Fatal("wrapped ErrAborted not retryable")
	}
	if congest.Retryable(errors.New("disk on fire")) {
		t.Fatal("arbitrary error retryable")
	}
	if congest.Retryable(nil) {
		t.Fatal("nil error retryable")
	}
}

// TestProtocolsReturnIncompleteError pins that undersized budgets surface
// as the typed error at the established call sites.
func TestProtocolsReturnIncompleteError(t *testing.T) {
	g := gen.Path(30)
	var ie *congest.IncompleteError
	if _, _, _, err := congest.DistributedBFSSync(g, 0, 2, congest.Options{}); !errors.As(err, &ie) {
		t.Fatalf("BFS with tiny diameter bound: got %v, want IncompleteError", err)
	} else if ie.Protocol != "BFS" {
		t.Fatalf("protocol %q, want BFS", ie.Protocol)
	}
}
