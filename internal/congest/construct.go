package congest

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// ConstructOptions configures the distributed flooding construction.
type ConstructOptions struct {
	// Cap is the congestion cap b: each tree edge admits at most Cap parts
	// (values below 1 are clamped to 1, matching shortcut.Construct).
	Cap int
	// Simulate runs the construction as an actual CONGEST protocol on the
	// engine and reports measured rounds; false computes the fixed point
	// sequentially and charges the framework's construction budget
	// (the mincut/sssp two-ledger convention).
	Simulate bool
	// Priorities is the part priority ranking the eviction rule uses
	// (prio[i] = rank of part i, rank 0 highest). Nil computes the
	// block-count-driven ranking (shortcut.TreeBlockPriorities) — callers
	// that run several constructions over one part family (the cap search)
	// pass it in so the ranking, and its dissemination cost, are paid once.
	Priorities []int32
	// Adversary, when non-nil, injects its fault plan into every simulated
	// run and widens the convergence loop to its retry policy. Requires
	// Simulate (the analytic path runs no protocol to disrupt).
	Adversary *Adversary
}

// ConstructResult reports a distributed shortcut construction. Exactly one
// ledger is populated per the run's mode: EffectiveRounds/Stats when the
// protocol was simulated, ChargedRounds when the fixed point was computed
// analytically.
type ConstructResult struct {
	S *shortcut.Shortcut
	// Stats is the construction protocol's own cost (simulate mode) — the
	// quantity the framework charges as construction rounds.
	Stats Stats
	// EffectiveRounds: rounds until the flood-and-evict protocol went quiet
	// (simulate mode). The run executes a fixed budget — nodes cannot detect
	// global quiescence — so Stats.Rounds exceeds this; nodes sleep through
	// the quiet tail, which the engine counts without running.
	EffectiveRounds int
	// ChargedRounds is the analytic-mode construction charge,
	// ConstructBudget(t, cap).
	ChargedRounds int
	Cap           int
	// Budget is the round budget the converged simulation ran under.
	Budget int
}

// ConstructBudget is the framework's round charge for one flooding
// construction: every part ID climbs at most height levels and each tree
// edge serializes at most cap admissions (plus eviction retractions) — the
// operational O((b+1)·height) bound. The simulated protocol starts from the
// same estimate, mirroring BatchRelaxBudget.
func ConstructBudget(t *graph.Tree, cap int) int {
	if cap < 1 {
		cap = 1
	}
	return (cap+2)*(t.Height()+2) + 8
}

// ConstructShortcut builds a tree-restricted shortcut fully in-network: the
// distributed realization of shortcut.Construct's part-wise flooding. Every
// vertex of a part holds the part's priority rank; ranks flood up the tree,
// each vertex forwarding over its parent edge the (up to) cap best ranks it
// currently knows — one ADMIT or EVICT message per edge per round — and
// retracting previously forwarded ranks when a higher-priority flood
// arrives (the eviction cascades up). Both modes return the flood-built
// shortcut.ConstructPrio under the same priorities, whose flooding state is
// the fixed point: simulate mode runs the protocol, with a budget that
// starts at ConstructBudget and doubles until the converged state matches
// that state (the same environment-checked convergence loop AggregateMin
// uses), and returns the same shortcut, so one flood pass serves as both
// the convergence target and the result.
func ConstructShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, opts ConstructOptions) (*ConstructResult, error) {
	if t.G != g {
		return nil, fmt.Errorf("congest: construction tree belongs to a different graph")
	}
	if p.G != g {
		return nil, fmt.Errorf("congest: construction parts belong to a different graph")
	}
	cap := opts.Cap
	if cap < 1 {
		cap = 1
	}
	prio := opts.Priorities
	if prio == nil {
		prio = shortcut.TreeBlockPriorities(t, p)
	} else if err := shortcut.ValidPriorities(prio, p.NumParts()); err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	adv := opts.Adversary
	if adv != nil && !opts.Simulate {
		return nil, fmt.Errorf("congest: construction adversary requires simulate mode")
	}
	res := &ConstructResult{Cap: cap, S: shortcut.ConstructPrio(g, t, p, cap, prio)}
	if !opts.Simulate {
		res.ChargedRounds = ConstructBudget(t, cap)
		return res, nil
	}
	want := res.S.FloodState()
	err := adv.converge("ConstructShortcut", ConstructBudget(t, cap), func(budget int) (err error) {
		var final [][]int32
		final, res.Stats, err = runConstruct(g, t, p, cap, budget, prio, adv.attemptOptions(budget))
		if err == nil && !slices.EqualFunc(final, want, slices.Equal[[]int32]) {
			err = &IncompleteError{Protocol: "ConstructShortcut", Rounds: res.Stats.Rounds, Budget: budget,
				Detail: "flood-and-evict state differs from the fixed point"}
		}
		res.Budget = budget
		return err
	})
	if err != nil {
		return nil, err
	}
	res.EffectiveRounds = res.Stats.LastActiveRound
	return res, nil
}

// Message ops of the construction protocol: one (op, rank) pair per tree
// edge per round, O(log n) bits.
const (
	conAdmit = 1
	conEvict = 2
)

// conNode is one vertex's protocol state. All fields are touched only from
// the node's own RoundFunc invocations, so shard workers never contend.
// All part identities are priority ranks (rank 0 = highest priority), so
// "keep the cap best" is a sorted-prefix truncation.
type conNode struct {
	parentPort       int32
	own              int32 // priority rank of this vertex's part, or -1
	dirty            bool
	slotOff, slotEnd int32   // the node's tree-child slots in the run's rcv
	sent             []int32 // sorted; what the parent currently believes, <= cap
	tmp              []int32 // scratch for the target computation
}

// runConstruct executes the flood-and-evict protocol for a fixed round
// budget and returns each node's final forwarded set (in rank space).
func runConstruct(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap, budget int, prio []int32, ropts Options) ([][]int32, Stats, error) {
	n := g.N()
	final := make([][]int32, n)
	state := make([]conNode, n)
	// Nodes send on their parent port alone, so only tree children admit
	// ranks: one slot per child edge, numbered in (node, port) order, and
	// portSlot[portOff[v]+port] is the slot behind a child port of v.
	portOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		portOff[v+1] = portOff[v] + int32(g.Degree(v))
	}
	portSlot := make([]int32, portOff[n])
	slots := int32(0)
	for v := 0; v < n; v++ {
		st := &state[v]
		st.parentPort = -1
		st.slotOff = slots
		for port, a := range g.Adj(v) {
			portSlot[portOff[v]+int32(port)] = -1
			switch {
			case a.ID == t.ParentEdge[v] && a.To == t.Parent[v]:
				st.parentPort = int32(port)
			case a.ID == t.ParentEdge[a.To] && t.Parent[a.To] == v:
				portSlot[portOff[v]+int32(port)] = slots
				slots++
			}
		}
		st.slotEnd = slots
		st.own = int32(-1)
		if pi := p.Of[v]; pi != -1 {
			st.own = prio[pi]
			st.dirty = true
		}
	}
	// A child admits at most cap ranks (its own |sent| bound), so each slot
	// is a cap-wide window of one slab; sent (<= cap) and tmp (<= cap+1
	// while it merges) share a second slab, cap+1 wide each.
	rcv := make([][]int32, slots)
	rcvSlab := make([]int32, int(slots)*cap)
	for s := range rcv {
		rcv[s] = rcvSlab[s*cap : s*cap : (s+1)*cap]
	}
	w := cap + 1
	setSlab := make([]int32, 2*n*w)
	for v := range state {
		state[v].sent = setSlab[2*v*w : 2*v*w : (2*v+1)*w]
		state[v].tmp = setSlab[(2*v+1)*w : (2*v+1)*w : (2*v+2)*w]
	}
	step := func(nd *Node, msgs []Message) bool {
		st := &state[nd.ID]
		for _, m := range msgs {
			s := portSlot[portOff[nd.ID]+int32(m.Port)]
			rank := int32(m.Payload[1])
			switch m.Payload[0] {
			case conAdmit:
				rcv[s] = insSorted(rcv[s], rank)
			case conEvict:
				rcv[s] = delSorted(rcv[s], rank)
			}
			st.dirty = true
		}
		if nd.Round() == budget+1 {
			final[nd.ID] = st.sent
			return false
		}
		if st.dirty && st.parentPort != -1 {
			target := conTarget(st, rcv[st.slotOff:st.slotEnd], cap)
			// One message per round: retract the worst stale admission
			// first (keeping |sent| <= cap at all times), else forward the
			// best missing part.
			if x, ok := worstNotIn(st.sent, target); ok {
				nd.Send(int(st.parentPort), Words{conEvict, uint64(x)})
				st.sent = delSorted(st.sent, x)
			} else if x, ok := bestNotIn(target, st.sent); ok {
				nd.Send(int(st.parentPort), Words{conAdmit, uint64(x)})
				st.sent = insSorted(st.sent, x)
			} else {
				st.dirty = false
			}
		} else if st.dirty {
			st.dirty = false // root: nothing to forward
		}
		if !st.dirty {
			nd.SleepUntil(budget + 1) // in step with the parent until mail
		}
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, ropts)
	if err != nil {
		return nil, stats, err
	}
	return final, stats, nil
}

// conTarget computes the (up to) cap best priority ranks currently present
// at the node: its own part plus everything admitted by its children, whose
// sets are rcv. The merge keeps only the best cap+1 candidates, so a round
// costs O(children · cap) regardless of how many parts exist.
func conTarget(st *conNode, rcv [][]int32, cap int) []int32 {
	tmp := st.tmp[:0]
	if st.own != -1 {
		tmp = append(tmp, st.own) //lint:allow hotalloc st.tmp is preallocated with cap+1 capacity at setup and insBounded keeps len <= cap
	}
	for _, set := range rcv {
		for _, i := range set {
			tmp = insBounded(tmp, i, cap)
		}
	}
	st.tmp = tmp
	return tmp
}

// insBounded inserts x into the sorted set keeping only the lowest bound
// elements.
func insBounded(set []int32, x int32, bound int) []int32 {
	set = insSorted(set, x)
	if len(set) > bound {
		set = set[:bound]
	}
	return set
}

// insSorted inserts x into a sorted duplicate-free slice (no-op if present).
func insSorted(set []int32, x int32) []int32 {
	lo := 0
	for lo < len(set) && set[lo] < x {
		lo++
	}
	if lo < len(set) && set[lo] == x {
		return set
	}
	set = append(set, 0) //lint:allow hotalloc every caller passes a slab preallocated at setup (sent/tmp: cap+1, rcv: cap) and the protocol keeps len below it before insert
	copy(set[lo+1:], set[lo:])
	set[lo] = x
	return set
}

// delSorted removes x from a sorted slice (no-op if absent).
func delSorted(set []int32, x int32) []int32 {
	for i, v := range set {
		if v == x {
			return append(set[:i], set[i+1:]...) //lint:allow hotalloc shrinking append: the result is one shorter than the input, so the backing array never grows
		}
	}
	return set
}

// worstNotIn returns the largest element of a absent from b (both sorted).
func worstNotIn(a, b []int32) (int32, bool) {
	for i := len(a) - 1; i >= 0; i-- {
		if !containsSorted(b, a[i]) {
			return a[i], true
		}
	}
	return 0, false
}

// bestNotIn returns the smallest element of a absent from b (both sorted).
func bestNotIn(a, b []int32) (int32, bool) {
	for _, x := range a {
		if !containsSorted(b, x) {
			return x, true
		}
	}
	return 0, false
}

func containsSorted(set []int32, x int32) bool {
	for _, v := range set {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}
