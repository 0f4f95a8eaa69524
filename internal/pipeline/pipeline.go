// Package pipeline is the shared provider layer of the shortcut framework:
// every distributed algorithm in the repo (MST, approximate min-cut,
// approximate SSSP) consumes its shortcuts through one Provider type, and
// every construction route — witness-derived, oblivious, in-network
// flooding, fully self-sufficient — is a Provider. The package also hosts
// the zero-witness bootstrap (SelfSetup): leader election plus distributed
// BFS, so a deployed network can run the whole pipeline with no
// generator-supplied structure at all.
//
// Round accounting is explicit: a Provider returns a two-ledger Rounds
// cost, so consumers book simulated (measured) rounds and analytic
// (charged) rounds into their matching result fields — the structural fix
// for the ledger-mixing bug class PR 2 found in min-cut.
package pipeline

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// Rounds is a two-ledger round cost. Simulated rounds were measured on the
// CONGEST engine (the EffectiveRounds/CommRounds class); Charged rounds are
// analytic framework budgets (the ChargedRounds class). A cost may populate
// both (a hybrid pipeline), but most providers fill exactly one per mode.
type Rounds struct {
	Simulated int
	Charged   int
}

// Plus returns the ledger-wise sum.
func (r Rounds) Plus(o Rounds) Rounds {
	return Rounds{Simulated: r.Simulated + o.Simulated, Charged: r.Charged + o.Charged}
}

// Total collapses both ledgers — only for display; never book a Total back
// into a single ledger.
func (r Rounds) Total() int { return r.Simulated + r.Charged }

// Provider yields a shortcut for the given part family plus the two-ledger
// round cost of obtaining it. The MST Borůvka calls it once per phase with
// the current fragments; min-cut calls it through each packing iteration;
// SSSP calls it once for its fixed decomposition.
type Provider func(p *partition.Parts) (*shortcut.Shortcut, Rounds, error)

// Oblivious builds shortcuts with the structure-blind claiming constructor;
// the analytic ledger is charged the measured quality (the Õ(q)
// construction bound the framework proves).
func Oblivious(g *graph.Graph, t *graph.Tree) Provider {
	return func(p *partition.Parts) (*shortcut.Shortcut, Rounds, error) {
		s, m := shortcut.ObliviousAuto(g, t, p)
		return s, Rounds{Charged: m.Quality}, nil
	}
}

// Empty gives no shortcuts: aggregation floods inside fragments, at no
// construction cost.
func Empty(g *graph.Graph, t *graph.Tree) Provider {
	return func(p *partition.Parts) (*shortcut.Shortcut, Rounds, error) {
		return shortcut.Empty(g, t, p), Rounds{}, nil
	}
}

// Flood constructs shortcuts in-network with the flooding construction
// (congest.ConstructShortcut) at a fixed congestion cap: simulate runs the
// actual protocol and returns its measured effective rounds; otherwise the
// fixed point is computed sequentially and the framework's construction
// budget is charged.
func Flood(g *graph.Graph, t *graph.Tree, cap int, simulate bool) Provider {
	return func(p *partition.Parts) (*shortcut.Shortcut, Rounds, error) {
		res, err := congest.ConstructShortcut(g, t, p, congest.ConstructOptions{Cap: cap, Simulate: simulate})
		if err != nil {
			return nil, Rounds{}, err
		}
		return res.S, Rounds{Simulated: res.EffectiveRounds, Charged: res.ChargedRounds}, nil
	}
}

// AutoFlood constructs shortcuts in-network with no cap input either: every
// invocation runs the O(log n) doubling cap search (congest.SearchCap) —
// block-priority bootstrap, one flooding construction at the part count
// whose prefixes are every guess, a convergecast quality estimate per
// guess, winner broadcast — and returns the winning
// shortcut with the search's full cost in the mode's ledger.
func AutoFlood(g *graph.Graph, t *graph.Tree, simulate bool) Provider {
	return AutoFloodUnder(g, t, simulate, nil)
}

// AutoFloodUnder is AutoFlood on a degraded network: every protocol of the
// cap search runs against the adversary's fault plan, retrying with
// doubled budgets on non-convergence. Because every sub-protocol
// self-checks against the sequential fixed points, a successful faulted
// search yields the identical shortcut and cap as the fault-free search —
// only the measured rounds differ. A nil adversary is AutoFlood.
func AutoFloodUnder(g *graph.Graph, t *graph.Tree, simulate bool, adv *congest.Adversary) Provider {
	return func(p *partition.Parts) (*shortcut.Shortcut, Rounds, error) {
		res, err := congest.SearchCap(g, t, p, congest.SearchOptions{Simulate: simulate, Adversary: adv})
		if err != nil {
			return nil, Rounds{}, err
		}
		return res.S, Rounds{Simulated: res.EffectiveRounds, Charged: res.ChargedRounds}, nil
	}
}

// Setup is the zero-witness bootstrap: the network elects a leader and
// builds its own BFS spanning tree, so no generator-supplied tree (or root)
// is needed anywhere downstream.
type Setup struct {
	G      *graph.Graph
	Leader int
	Tree   *graph.Tree
	// Cost is the bootstrap's round cost in the ledger matching the mode.
	Cost Rounds
	// Stats accumulates the bootstrap protocols' engine counters in
	// simulate mode (rounds, messages, and — under an adversary — the
	// dropped/down/crash tallies), so degraded runs are observable.
	Stats congest.Stats
	// ChargedEquivalent is the analytic-ledger bootstrap charge regardless
	// of mode (a closed form of the diameter bound), so a simulate run can
	// report both ledgers without re-running the setup. Equals Cost.Charged
	// in analytic mode.
	ChargedEquivalent int
	Simulate          bool
}

// SelfSetup elects the minimum vertex ID by flooding and builds the BFS
// tree rooted there. In simulate mode both protocols
// (congest.LeaderElectSync, then the early-exit congest.DistributedBFSSync)
// actually run on the engine — their measured rounds are the cost — and
// the tree is assembled from the protocol's own parent/edge announcements.
// In analytic mode the same leader and a BFS tree are computed
// sequentially and the two floods' round budgets are charged. The diameter
// bound the protocols need is the doubled double-sweep estimate
// (2·ecc ≥ D for any vertex), matching the CONGEST convention that nodes
// know an upper bound on D (§1.3.1). A disconnected network fails with a
// wrapped graph.ErrDisconnected in every mode.
func SelfSetup(g *graph.Graph, simulate bool) (*Setup, error) {
	return SelfSetupUnder(g, simulate, nil)
}

// SelfSetupUnder is the zero-witness bootstrap on a degraded network: with
// a non-nil adversary (simulate mode only), election and BFS run as the
// resilient re-broadcasting protocols — every round re-offers the node's
// current knowledge, so lost messages cost rounds, not correctness — with
// per-protocol retry under doubled budgets. Their converged states are
// checked against the same sequential fixed points the fault-free
// protocols use, so a successful degraded setup elects the identical
// leader and tree. A nil adversary is SelfSetup.
func SelfSetupUnder(g *graph.Graph, simulate bool, adv *congest.Adversary) (*Setup, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("pipeline: self-setup over an empty network")
	}
	if adv != nil && !simulate {
		return nil, fmt.Errorf("pipeline: self-setup adversary requires simulate mode")
	}
	ecc := graph.DiameterApprox(g)
	if ecc < 0 {
		return nil, fmt.Errorf("pipeline: self-setup: %w", graph.ErrDisconnected)
	}
	diamBound := 2*ecc + 2
	s := &Setup{G: g, Simulate: simulate, ChargedEquivalent: 2 * (diamBound + 2)}
	if !simulate {
		s.Leader = 0 // the election elects the minimum vertex ID
		t, err := electedTree(g, s.Leader)
		if err != nil {
			return nil, fmt.Errorf("pipeline: self-setup BFS: %w", err)
		}
		s.Tree = t
		s.Cost = Rounds{Charged: 2 * (diamBound + 2)}
		return s, nil
	}
	leader, estats, err := adv.LeaderElect(g, diamBound)
	if err != nil {
		return nil, fmt.Errorf("pipeline: leader election: %w", err)
	}
	parent, parentEdge, bstats, err := adv.BFS(g, leader, diamBound)
	if err != nil {
		return nil, fmt.Errorf("pipeline: distributed BFS: %w", err)
	}
	t, err := graph.TreeFromParents(g, leader, parent, parentEdge)
	if err != nil {
		return nil, fmt.Errorf("pipeline: assembling elected tree: %w", err)
	}
	s.Leader = leader
	s.Tree = t
	s.Cost = Rounds{Simulated: estats.Rounds + bstats.Rounds}
	s.Stats = estats
	s.Stats.Add(bstats)
	return s, nil
}

// electedTree builds, sequentially, exactly the BFS tree the distributed
// flood elects — congest.CanonicalBFSParents' lowest-port rule, assembled
// into a Tree. Keeping the analytic path byte-identical to the protocol's
// fixed point means the two modes of the whole downstream pipeline
// construct the same shortcuts (the repo's sequential-oracle convention).
func electedTree(g *graph.Graph, root int) (*graph.Tree, error) {
	parent, parentEdge, err := congest.CanonicalBFSParents(g, root)
	if err != nil {
		return nil, err
	}
	return graph.TreeFromParents(g, root, parent, parentEdge)
}

// TreeFor transfers the elected tree onto a clone of the setup's graph
// (same vertices, same edge IDs — e.g. min-cut's reweighted packing
// copies), revalidating it against the clone. No new rounds are needed:
// the tree is a property of the topology, which the clone shares.
func (s *Setup) TreeFor(h *graph.Graph) (*graph.Tree, error) {
	if h == s.G {
		return s.Tree, nil
	}
	t, err := graph.TreeFromParents(h, s.Leader, s.Tree.Parent, s.Tree.ParentEdge)
	if err != nil {
		return nil, fmt.Errorf("pipeline: elected tree does not fit graph clone: %w", err)
	}
	return t, nil
}

// Provider returns the fully self-sufficient provider over the elected
// tree: the in-network cap search per part family (AutoFlood). Together
// with the Setup cost this prices the complete zero-witness pipeline.
func (s *Setup) Provider() Provider {
	return AutoFlood(s.G, s.Tree, s.Simulate)
}

// Decompose runs the Borůvka fragment decomposition in-network
// (congest.BoruvkaDecompose): per phase, a flood inside each fragment finds
// its lightest outgoing edge and a flood inside each merged fragment
// relabels it, the per-phase routine the MST runs over its shortcuts, here
// over the empty shortcut. This is the decomposition the self-sufficient
// SSSP pipeline feeds to the shortcut framework, priced in the setup's
// mode: in simulate mode the floods run on the engine and the measured
// rounds land in the simulated ledger; analytic mode charges the exchange
// round plus, per flood, twice the family's largest fragment eccentricity
// plus one.
func (s *Setup) Decompose(phases int) (*partition.Parts, Rounds, error) {
	res, err := congest.BoruvkaDecompose(s.G, s.Tree, phases, s.Simulate)
	if err != nil {
		return nil, Rounds{}, fmt.Errorf("pipeline: fragment decomposition: %w", err)
	}
	return res.Parts, Rounds{Simulated: res.EffectiveRounds, Charged: res.ChargedRounds}, nil
}
