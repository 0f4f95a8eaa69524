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
	// that already hold the ranking (the cap search, which bootstraps it
	// in-network) pass it in so it and its dissemination are paid once.
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
// the convergence target and the result. The shortcut is measured at
// construction, in closed form where every part is one vertex or the cap
// covers every subtree's parts, and its state is generated on first read:
// analytic mode reads nothing, so it runs the pass only where the closed
// form does not apply, and simulate mode's convergence target is that
// first read.
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
		final, res.Stats, err = runConstruct(g, t, p, cap, budget, prio, want, adv.attemptOptions(budget))
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
	own        int32 // priority rank of this vertex's part, or -1
	dirty      bool
	sent       []int32 // sorted; what the parent currently believes
	tmp, spare []int32 // the target merge's two buffers
}

// runConstruct executes the flood-and-evict protocol for a fixed round
// budget and returns each node's final forwarded set (in rank space).
// want is the fixed point at cap, which sizes the state: every rank a node
// holds is present in its subtree, so what it has sent, its target and
// what it has heard from a child hold at most min(cap, |S|) ranks, S the
// ranks present in the subtree, and that is the length of the node's, or
// the child's, fixed-point list.
func runConstruct(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap, budget int, prio []int32, want [][]int32, ropts Options) ([][]int32, Stats, error) {
	n := g.N()
	final := make([][]int32, n)
	state := make([]conNode, n)
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + len(want[v])
	}
	// Nodes send on their parent port alone, so only tree children admit
	// ranks, one slot each: the window of the child's width in one slab. A
	// node's sent list and its two merge buffers share a second slab.
	tp := newTreePorts(g, t)
	rcv := make([][]int32, len(tp.child))
	rcvSlab := make([]int32, off[n])
	for s, c := range tp.child {
		rcv[s] = rcvSlab[off[c]:off[c]:off[c+1]]
	}
	setSlab := make([]int32, 3*off[n])
	for v := range state {
		st := &state[v]
		row := setSlab[3*off[v] : 3*off[v+1]]
		w := len(want[v])
		st.sent, st.tmp, st.spare = row[:0:w], row[w:w:2*w], row[2*w:2*w:3*w]
		st.own = -1
		if pi := p.Of[v]; pi != -1 {
			st.own = prio[pi]
			st.dirty = true
		}
	}
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		st := &state[v]
		for _, m := range msgs {
			s := tp.slot(v, m.Port)
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
			final[v] = st.sent
			return false
		}
		if st.dirty && tp.parent[v] != -1 {
			// One message per round: retract the worst stale admission
			// first (keeping |sent| <= cap at all times), else forward the
			// best missing part.
			switch op, x := nextConMessage(st.sent, st.target(rcv[tp.slotOff[v]:tp.slotOff[v+1]], cap)); op {
			case conEvict:
				nd.Send(int(tp.parent[v]), Words{conEvict, uint64(x)})
				st.sent = delSorted(st.sent, x)
			case conAdmit:
				nd.Send(int(tp.parent[v]), Words{conAdmit, uint64(x)})
				st.sent = insSorted(st.sent, x)
			default:
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

// target is the flooding rule at the node: the (up to) cap best priority
// ranks present there, its own part's and those its children admit, whose
// sets are rcv. It folds the flood pass's merge, bounded at cap, over the
// children, so a round costs O(children · cap) however many parts exist.
func (st *conNode) target(rcv [][]int32, cap int) []int32 {
	tgt := st.tmp[:0]
	if st.own != -1 {
		tgt = st.tmp[:1]
		tgt[0] = st.own
	}
	for _, set := range rcv {
		//lint:allow hotalloc both buffers are slab windows as wide as the node's fixed-point list, which bounds every target
		tgt, st.spare = shortcut.MergeRanks(st.spare[:0], tgt, set, cap), tgt
	}
	st.tmp = tgt
	return tgt
}

// nextConMessage picks a node's next message in one two-pointer pass over
// sent and target, both ascending: the largest rank of sent that target
// lacks, to evict, or failing that the smallest rank of target that sent
// lacks, to admit. It returns op 0 when the two are equal.
func nextConMessage(sent, target []int32) (op int, rank int32) {
	i, j := 0, 0
	for i < len(sent) || j < len(target) {
		switch {
		case j == len(target) || (i < len(sent) && sent[i] < target[j]):
			op, rank = conEvict, sent[i] // the last one found is the largest
			i++
		case i == len(sent) || target[j] < sent[i]:
			if op == 0 {
				op, rank = conAdmit, target[j]
			}
			j++
		default:
			i++
			j++
		}
	}
	return op, rank
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
	set = append(set, 0) //lint:allow hotalloc sent and rcv are slab windows as wide as the fixed-point list, which bounds them in a fault-free run, so the append stays in place
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
