package congest

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// This file is the recovery layer over the fault-injection engine: an
// Adversary wraps a FaultPlan plus the retry policy, and every protocol the
// self-sufficient pipeline needs — leader election, BFS tree construction,
// the pipelined tree layer, part-wise aggregation, the flooding
// construction — has an adversary-aware entry point that detects
// non-convergence (the engine's ErrAborted, the protocols' ErrIncomplete
// fixed-point self-checks) and retries with a doubled round budget, up to a
// cap of attempts.
//
// Convergence guarantee: every retried protocol validates its converged
// state against the same sequential fixed point the fault-free run uses
// (the repo's sequential-oracle convention), so a successful resilient run
// is *identical* — same tree, same priorities, same shortcut, same cap — to
// the fault-free run. And whenever the adversary's disruptions have a
// finite horizon (bounded link-down and crash intervals, DropUntil set) and
// leave the graph connected, some doubled budget eventually grants an
// attempt a clean window after the horizon, which then converges
// deterministically — so the retry loop terminates with the fault-free
// answer. A drop probability with no horizon degrades this to a
// probabilistic guarantee for the once-only token streams (Pipecast /
// PipeBroadcast forward each token once; any lost token voids the whole
// attempt), which is why FaultPlan.DropUntil exists.
//
// Retries advance the adversary's timeline (FaultPlan.Offset) by each
// attempt's granted budget: the retried protocol faces the continuation of
// the fault schedule, never a verbatim replay of the coins that just
// defeated it.
//
// Limitation (documented, by design): protocols whose per-node state lives
// in shared slabs rebuild nothing when a crash restarts a node with
// Wipe — the SyncProtocol factory returns the shared RoundFunc, so a wiped
// restart degrades to a preserve-state restart. Whole-protocol retries,
// not per-node wipes, are the recovery mechanism here.

// Adversary couples a fault plan with the retry policy and tracks how much
// of the plan's timeline has been consumed across attempts. The zero
// Attempts selects 8, matching the pre-existing doubling loops. A nil
// *Adversary is valid everywhere and means "no faults": the adversary-aware
// entry points degrade to the plain fault-free protocols.
type Adversary struct {
	Plan     FaultPlan
	Attempts int

	// Retries counts retryable failures absorbed so far (all protocols).
	Retries int

	consumed int // rounds of the plan's timeline granted to attempts
}

// NewAdversary wraps a fault plan with the default retry policy.
func NewAdversary(plan FaultPlan) *Adversary { return &Adversary{Plan: plan} }

// attempts returns the retry cap.
func (a *Adversary) attempts() int {
	if a == nil || a.Attempts <= 0 {
		return 8
	}
	return a.Attempts
}

// Consumed reports how many rounds of the adversary's timeline have been
// granted to protocol attempts (successful or not) — the resilient
// pipeline's honest notion of elapsed adversarial time.
func (a *Adversary) Consumed() int {
	if a == nil {
		return 0
	}
	return a.consumed
}

// options builds one attempt's engine options: the plan shifted to the
// current timeline position, and the attempt's round budget consumed from
// the timeline whether or not the run uses all of it (the consumption must
// be deterministic, and a run's actual length is only known after the
// fact).
func (a *Adversary) options(maxRounds int) Options {
	p := a.Plan.Clone()
	p.Offset = a.Plan.Offset + a.consumed
	a.consumed += maxRounds
	return Options{MaxRounds: maxRounds, Faults: p}
}

// Retryable reports whether err is a transient non-convergence a doubled
// budget may fix: an aborted run (round bound exceeded, out-of-schedule
// token) or a failed fixed-point self-check. Anything else — malformed
// input, a caller bug — is permanent.
func Retryable(err error) bool {
	return errors.Is(err, ErrAborted) || errors.Is(err, ErrIncomplete)
}

// exhausted is the typed error a retry loop returns when every attempt
// failed.
func exhausted(protocol string, attempts, lastBudget int, last error) error {
	return &IncompleteError{Protocol: protocol, Budget: lastBudget,
		Detail: fmt.Sprintf("%d faulted attempts exhausted, last: %v", attempts, last)}
}

// CanonicalBFSParents computes, sequentially, the parent/parent-edge arrays
// of the canonical elected BFS tree from root: every vertex adopts its
// first adjacency-order (lowest-port) neighbor one BFS level closer. This
// is the fixed point both DistributedBFSSync (first announcement, lowest
// port on ties) and the resilient re-broadcasting BFS converge to, and the
// tree pipeline.SelfSetup builds analytically — exported so all three
// share one definition.
func CanonicalBFSParents(g *graph.Graph, root int) (parent, parentEdge []int, err error) {
	r := graph.BFS(g, root)
	if len(r.Order) != g.N() {
		return nil, nil, graph.ErrDisconnected
	}
	parent = make([]int, g.N())
	parentEdge = make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		parent[v], parentEdge[v] = -1, -1
		if v == root {
			continue
		}
		for _, a := range g.Adj(v) {
			if r.Dist[a.To] == r.Dist[v]-1 {
				parent[v], parentEdge[v] = a.To, a.ID
				break
			}
		}
	}
	return parent, parentEdge, nil
}

// LeaderElect elects the minimum vertex ID under the adversary: a
// round-driven flood where every node re-broadcasts its best-known ID
// every round (re-broadcasting makes lost messages harmless — the
// information is offered again next round), for a budget of rounds that
// starts at diamBound+1 and doubles per attempt. The converged votes are
// checked for unanimity on the true minimum (vertex 0 — IDs are dense);
// disagreement retries. A nil adversary delegates to the fault-free
// LeaderElectSync.
func (a *Adversary) LeaderElect(g *graph.Graph, diamBound int) (leader int, stats Stats, err error) {
	if a == nil {
		return LeaderElectSync(g, diamBound, Options{})
	}
	n := g.N()
	if n == 0 {
		return -1, stats, fmt.Errorf("congest: leader election over an empty network")
	}
	if diamBound <= 0 {
		return -1, stats, fmt.Errorf("congest: leader election diameter bound %d must be positive", diamBound)
	}
	budget := diamBound + 1
	var last error
	for attempt := 0; attempt < a.attempts(); attempt++ {
		best := make([]uint64, n)
		for v := range best {
			best[v] = uint64(v)
		}
		b := budget
		step := func(nd *Node, msgs []Message) bool {
			v := nd.ID
			for _, m := range msgs {
				if m.Payload[0] < best[v] {
					best[v] = m.Payload[0]
				}
			}
			if nd.round > b {
				return false
			}
			nd.Broadcast(Words{best[v]})
			return true
		}
		// Crashes stall a node's local round counter, so grant the engine
		// headroom beyond the per-node budget.
		rstats, rerr := RunSync(g, func(*Node) RoundFunc { return step }, a.options(2*budget+64))
		stats.Add(rstats)
		if rerr == nil {
			agreed := true
			for v := 0; v < n; v++ {
				if best[v] != 0 {
					agreed = false
					break
				}
			}
			if agreed {
				return 0, stats, nil
			}
			rerr = &IncompleteError{Protocol: "LeaderElect", Rounds: rstats.Rounds, Budget: budget,
				Detail: "votes not unanimous on the minimum ID"}
		}
		if !Retryable(rerr) {
			return -1, stats, rerr
		}
		last = rerr
		a.Retries++
		budget *= 2
	}
	return -1, stats, exhausted("LeaderElect", a.attempts(), budget/2, last)
}

// BFS builds the canonical elected BFS tree from root under the adversary:
// a Bellman-Ford-style flood where every reached node re-broadcasts its
// current distance every round and tracks the best distance heard per
// port. Re-broadcasting makes the protocol self-stabilizing under message
// loss: any clean window of diameter-many rounds after the adversary's
// horizon refreshes every per-port estimate and the distances settle to
// true BFS levels. Each node then adopts the lowest port whose neighbor
// sits one level closer — and the converged arrays are checked against
// CanonicalBFSParents exactly, so a successful run returns the identical
// tree the fault-free pipeline elects. A nil adversary delegates to the
// early-exit DistributedBFSSync.
func (a *Adversary) BFS(g *graph.Graph, root, diamBound int) (parent, parentEdge []int, stats Stats, err error) {
	if a == nil {
		return DistributedBFSSync(g, root, diamBound, Options{})
	}
	n := g.N()
	if root < 0 || root >= n {
		return nil, nil, stats, fmt.Errorf("congest: BFS root %d out of range for %d nodes", root, n)
	}
	if diamBound <= 0 {
		return nil, nil, stats, fmt.Errorf("congest: BFS diameter bound %d must be positive", diamBound)
	}
	wantParent, wantEdge, err := CanonicalBFSParents(g, root)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("congest: resilient BFS: %w", err)
	}
	const inf = uint64(1) << 62
	portOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		portOff[v+1] = portOff[v] + int32(g.Degree(v))
	}
	budget := diamBound + 2
	var last error
	for attempt := 0; attempt < a.attempts(); attempt++ {
		dist := make([]uint64, n)
		nbrDist := make([]uint64, portOff[n])
		for v := range dist {
			dist[v] = inf
		}
		for i := range nbrDist {
			nbrDist[i] = inf
		}
		dist[root] = 0
		b := budget
		step := func(nd *Node, msgs []Message) bool {
			v := nd.ID
			for _, m := range msgs {
				d := m.Payload[0]
				if d < nbrDist[portOff[v]+int32(m.Port)] {
					nbrDist[portOff[v]+int32(m.Port)] = d
					if d+1 < dist[v] {
						dist[v] = d + 1
					}
				}
			}
			if nd.round > b {
				return false
			}
			if dist[v] < inf {
				nd.Broadcast(Words{dist[v]})
			}
			return true
		}
		rstats, rerr := RunSync(g, func(*Node) RoundFunc { return step }, a.options(2*budget+64))
		stats.Add(rstats)
		if rerr == nil {
			parent = make([]int, n)
			parentEdge = make([]int, n)
			ok := true
			for v := 0; v < n && ok; v++ {
				parent[v], parentEdge[v] = -1, -1
				if v == root {
					continue
				}
				for port, arc := range g.Adj(v) {
					if dist[v] < inf && nbrDist[portOff[v]+int32(port)] == dist[v]-1 {
						parent[v], parentEdge[v] = arc.To, arc.ID
						break
					}
				}
				if parent[v] != wantParent[v] || parentEdge[v] != wantEdge[v] {
					ok = false
				}
			}
			if ok {
				return parent, parentEdge, stats, nil
			}
			rerr = &IncompleteError{Protocol: "BFS", Rounds: rstats.Rounds, Budget: budget,
				Detail: "converged tree differs from the canonical elected tree"}
		}
		if !Retryable(rerr) {
			return nil, nil, stats, rerr
		}
		last = rerr
		a.Retries++
		budget *= 2
	}
	return nil, nil, stats, exhausted("BFS", a.attempts(), budget/2, last)
}

// Pipecast is the pipelined convergecast under the adversary: whole-run
// restarts with doubled budget (the token streams emit each token once, so
// any loss voids the attempt; the run's own fixed-point validation plus the
// engine's schedule checks detect every such loss). A nil adversary
// delegates to the plain Pipecast.
func (a *Adversary) Pipecast(t *graph.Tree, numTags int, contrib [][]Token, comb Combiner) (*PipecastResult, error) {
	if a == nil {
		return Pipecast(t, numTags, contrib, comb)
	}
	budget := t.Height() + numTags + 64
	var last error
	for attempt := 0; attempt < a.attempts(); attempt++ {
		res, err := pipecastOpts(t, numTags, contrib, comb, a.options(budget))
		if err == nil {
			return res, nil
		}
		if !Retryable(err) {
			return nil, err
		}
		last = err
		a.Retries++
		budget *= 2
	}
	return nil, exhausted("Pipecast", a.attempts(), budget/2, last)
}

// PipeBroadcast is the pipelined broadcast under the adversary (see
// Pipecast).
func (a *Adversary) PipeBroadcast(t *graph.Tree, tokens []Token) (*BroadcastResult, error) {
	if a == nil {
		return PipeBroadcast(t, tokens)
	}
	budget := t.Height() + len(tokens) + 64
	var last error
	for attempt := 0; attempt < a.attempts(); attempt++ {
		res, err := pipeBroadcastOpts(t, tokens, a.options(budget))
		if err == nil {
			return res, nil
		}
		if !Retryable(err) {
			return nil, err
		}
		last = err
		a.Retries++
		budget *= 2
	}
	return nil, exhausted("PipeBroadcast", a.attempts(), budget/2, last)
}

// treeCombineUnder is treeCombine routed through the adversary's Pipecast
// (nil adversary = fault-free).
func treeCombineUnder(t *graph.Tree, values []uint64, comb Combiner, a *Adversary) (total uint64, stats Stats, err error) {
	g := t.G
	if len(values) != g.N() {
		return 0, stats, fmt.Errorf("congest: %d values for %d vertices", len(values), g.N())
	}
	backing := make([]Token, g.N())
	contrib := make([][]Token, g.N())
	for v := range contrib {
		backing[v] = Token{Tag: 0, Value: values[v]}
		contrib[v] = backing[v : v+1 : v+1]
	}
	res, err := a.Pipecast(t, 1, contrib, comb)
	if err != nil {
		return 0, stats, err
	}
	return res.Values[0], res.Stats, nil
}
