package congest

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// SearchOptions configures the in-network congestion-cap search.
type SearchOptions struct {
	// Simulate runs every construction and quality probe as an actual
	// CONGEST protocol and reports measured rounds; false computes the same
	// fixed points and estimates sequentially and charges the framework
	// budgets (the two-ledger convention).
	Simulate bool
	// Adversary, when non-nil, injects its fault plan into every simulated
	// protocol of the search (bootstrap, constructions, probes, winner
	// broadcast), with per-protocol retry under doubled budgets. Requires
	// Simulate. Because every sub-protocol validates against the sequential
	// fixed points both modes share, a successful faulted search returns
	// the identical cap, priorities, and shortcut as the fault-free search.
	Adversary *Adversary
}

// SearchResult reports an in-network cap search. Exactly one round ledger
// is populated per the run's mode.
type SearchResult struct {
	S   *shortcut.Shortcut
	Cap int
	// Estimate is the winning guess's in-network quality estimate:
	// maxBlocks · maxAugmentedEcc + congestion — the quality formula with
	// the augmented-diameter probe standing in for the worst-case tree
	// diameter, every term a convergecast over the constructed shortcut.
	Estimate int
	// Guesses is the number of caps evaluated (≤ ceil(log2 parts) + 1).
	Guesses int
	// Priorities is the block-count-driven ranking all guesses shared.
	Priorities []int32
	// BootstrapRounds is the priority bootstrap's round cost in the mode's
	// ledger: the pipelined block-count convergecast plus ranking
	// broadcast's measured rounds in simulate mode, PriorityBudget in
	// analytic mode.
	BootstrapRounds int
	// Stats accumulates every simulated protocol of the search.
	Stats Stats
	// EffectiveRounds: total measured rounds of the search in simulate mode
	// (constructions, congestion and block-count convergecasts, flood
	// probes, the priority bootstrap, and the winner broadcast — every term
	// measured on the engine, none modeled).
	EffectiveRounds int
	// ChargedRounds is the analytic-mode total for the same pipeline.
	ChargedRounds int
	// ChargedEquivalent is the analytic-ledger total regardless of mode —
	// every term is a closed-form budget of quantities both modes share
	// (caps, estimates, tree height, part count), so a simulate run can
	// report what the same search would charge without re-running it.
	// Equals ChargedRounds in analytic mode.
	ChargedEquivalent int
}

// PriorityBudget is the analytic round charge for the block-priority
// bootstrap: each part's tree block count is a convergecast sum of locally
// decidable indicators (a member tops a block iff its tree parent is
// outside the part), the per-part counts pipeline to the root — one token
// per tree edge per round — and the resulting ranking broadcasts back
// down: one PipecastBudget each way. Simulate mode runs exactly this
// protocol (BootstrapPrioritiesUnder) and reports measured rounds instead.
func PriorityBudget(t *graph.Tree, p *partition.Parts) int {
	return 2 * PipecastBudget(t, p.NumParts())
}

// BootstrapResult reports the block-priority bootstrap.
type BootstrapResult struct {
	// Counts are the per-part tree block counts the convergecast produced
	// (== shortcut.TreeBlockCounts, validated).
	Counts []int
	// Priorities is the resulting ranking (== shortcut.TreeBlockPriorities).
	Priorities []int32
	Stats      Stats
	// EffectiveRounds: measured rounds (pipelined convergecast up plus
	// ranking broadcast down) in simulate mode.
	EffectiveRounds int
	// ChargedRounds: PriorityBudget in analytic mode.
	ChargedRounds int
}

// BootstrapPrioritiesUnder computes the block-count part priorities the
// way a deployed network does — the distributed realization of
// shortcut.TreeBlockCounts + TreeBlockPriorities. Every part member
// decides locally whether it tops a tree block of its part (its tree
// parent lies outside the part, or it is the root); the indicators
// pipeline up the tree as tagged count tokens (Pipecast, one token per
// tree edge per round, O(height + parts) measured rounds), the root ranks
// the counts (shortcut.RankBlockCounts), and the ranking streams back
// down (PipeBroadcast, same bound). Both steps' fixed points are
// validated against the sequential functions, so the two modes share the
// ranking — and with it every downstream construction — exactly. Both
// pipelined streams run through the adversary's retrying wrappers (a nil
// adversary is the fault-free bootstrap).
func BootstrapPrioritiesUnder(t *graph.Tree, p *partition.Parts, simulate bool, adv *Adversary) (*BootstrapResult, error) {
	counts := shortcut.TreeBlockCounts(t, p)
	res := &BootstrapResult{Counts: counts, Priorities: shortcut.RankBlockCounts(counts)}
	if !simulate {
		res.ChargedRounds = PriorityBudget(t, p)
		return res, nil
	}
	np := p.NumParts()
	up, err := adv.Pipecast(t, np, BlockTopTokens(t, p), CombineCount)
	if err != nil {
		return nil, fmt.Errorf("congest: priority bootstrap convergecast: %w", err)
	}
	for i, want := range counts {
		if up.Values[i] != uint64(want) {
			return nil, fmt.Errorf("congest: part %d block-count convergecast returned %d, sequential count is %d",
				i, up.Values[i], want)
		}
	}
	res.Stats.Add(up.Stats)
	res.EffectiveRounds += up.EffectiveRounds
	tokens := make([]Token, np)
	for i := range tokens {
		tokens[i] = Token{Tag: int32(i), Value: uint64(res.Priorities[i])}
	}
	down, err := adv.PipeBroadcast(t, tokens)
	if err != nil {
		return nil, fmt.Errorf("congest: priority bootstrap ranking broadcast: %w", err)
	}
	res.Stats.Add(down.Stats)
	res.EffectiveRounds += down.EffectiveRounds
	return res, nil
}

// BlockTopTokens builds the priority bootstrap's convergecast payload:
// one count token, tagged with the member's part, for every vertex that
// tops a tree block of its part (its tree parent lies outside the part,
// or it is the root) — the locally decidable indicators whose per-part
// sums are shortcut.TreeBlockCounts. Shared by BootstrapPrioritiesUnder and
// the E15 experiment so table and protocol can never diverge.
func BlockTopTokens(t *graph.Tree, p *partition.Parts) [][]Token {
	n := t.G.N()
	backing := make([]Token, n)
	contrib := make([][]Token, n)
	for v := 0; v < n; v++ {
		pi := p.Of[v]
		if pi == -1 {
			continue
		}
		if par := t.Parent[v]; par != -1 && p.Of[par] == pi {
			continue // an interior member of a block contributes nothing
		}
		backing[v] = Token{Tag: int32(pi), Value: 1}
		contrib[v] = backing[v : v+1 : v+1]
	}
	return contrib
}

// probeBudget is the analytic charge for one guess's quality estimate: a
// tree convergecast of the congestion maximum, a part-wise flood probe
// whose round count the estimate itself bounds (the single-source
// BatchRelaxBudget shape), and the pipelined block-count convergecast
// (each vertex decides locally which parts' admitted chains it tops and
// the per-part sums stream to the root: one PipecastBudget).
func probeBudget(t *graph.Tree, p *partition.Parts, est int) int {
	return (t.Height() + 2) + (est + 2*t.Height() + 8) + PipecastBudget(t, p.NumParts())
}

// SearchCap finds a good congestion cap fully in-network: the O(log n)
// doubling search the paper's framework runs in place of the central sweep
// (shortcut.ConstructAuto). Caps 1, 2, 4, ... (clamped to the part count —
// a cap of NumParts already admits every part everywhere) are each
// constructed with the flooding protocol, and each guess's quality is
// estimated by convergecast over the constructed shortcut:
//
//   - congestion: every vertex knows how many parts it admitted over its
//     parent edge; the maximum convergecasts up the tree (a single-token
//     Pipecast under CombineMax);
//   - block counts: every vertex decides locally which parts' admitted
//     chains it tops (shortcut.BlockTops); the per-part sums pipeline up
//     the tree (Pipecast), one token per tree edge per round;
//   - augmented-diameter probe: every part floods its minimum member ID
//     over its induced-plus-shortcut channels (the AggregateMin primitive);
//     the quiescence point tracks the augmented eccentricity under real
//     congestion serialization.
//
// The estimate is the quality formula with the probe standing in for the
// worst-case tree diameter — maxBlocks · maxAugmentedEcc + congestion —
// evaluated on the converged fixed point, which both modes share, so
// simulate and analytic runs select the same cap; the guess with the
// lowest estimate (ties toward the smaller cap) wins and is re-broadcast
// down the tree. Block-count part priorities are computed once and shared
// by all guesses; in simulate mode their bootstrap runs message-level on
// the pipelined tree layer (BootstrapPrioritiesUnder) and its measured rounds
// are booked — no modeled charge remains anywhere in the simulated
// ledger. Analytic mode charges PriorityBudget as before.
//
// The sequential side of the eccentricity probe is computed once too: the
// cap-independent per-part bounds and probe order of shortcut.EccProbe,
// which let every guess skip the parts that cannot raise its maximum. An
// analytic search reads each guess's measurement and flooding state only,
// so no guess's shortcut, the winner's included, builds its edge lists.
func SearchCap(g *graph.Graph, t *graph.Tree, p *partition.Parts, opts SearchOptions) (*SearchResult, error) {
	if t.G != g {
		return nil, fmt.Errorf("congest: cap search tree belongs to a different graph")
	}
	if p.G != g {
		return nil, fmt.Errorf("congest: cap search parts belong to a different graph")
	}
	np := p.NumParts()
	if np == 0 {
		return nil, fmt.Errorf("congest: cap search over an empty part family")
	}
	if opts.Adversary != nil && !opts.Simulate {
		return nil, fmt.Errorf("congest: cap search adversary requires simulate mode")
	}
	boot, err := BootstrapPrioritiesUnder(t, p, opts.Simulate, opts.Adversary)
	if err != nil {
		return nil, err
	}
	res := &SearchResult{Priorities: boot.Priorities}
	book := func(simulated, charged int) {
		if opts.Simulate {
			res.EffectiveRounds += simulated
		} else {
			res.ChargedRounds += charged
		}
		res.ChargedEquivalent += charged
	}
	res.Stats.Add(boot.Stats)
	book(boot.EffectiveRounds, PriorityBudget(t, p))
	if opts.Simulate {
		res.BootstrapRounds = boot.EffectiveRounds
	} else {
		res.BootstrapRounds = boot.ChargedRounds
	}
	probe := shortcut.NewEccProbe(g, t, p)
	bestEst := -1
	for cap := 1; ; cap *= 2 {
		c := cap
		if c > np {
			c = np
		}
		cres, err := ConstructShortcut(g, t, p, ConstructOptions{
			Cap: c, Simulate: opts.Simulate, Priorities: res.Priorities, Adversary: opts.Adversary,
		})
		if err != nil {
			return nil, fmt.Errorf("congest: cap search guess %d: %w", c, err)
		}
		res.Guesses++
		res.Stats.Add(cres.Stats)
		est, err := estimateQuality(g, t, p, cres.S, probe, opts.Simulate, opts.Adversary, res)
		if err != nil {
			return nil, fmt.Errorf("congest: cap search guess %d: %w", c, err)
		}
		// The construction's analytic charge is the closed-form budget in
		// either mode (analytic runs return exactly it), so the charged
		// equivalent stays complete on simulate runs too.
		book(cres.EffectiveRounds, ConstructBudget(t, c))
		book(0, probeBudget(t, p, est)) // simulate books measured probe rounds inside estimateQuality
		if bestEst == -1 || est < bestEst {
			bestEst = est
			res.S, res.Cap, res.Estimate = cres.S, c, est
		}
		if c >= np {
			break // larger caps construct the identical shortcut
		}
	}
	// Disseminate the winning cap down the tree so every node constructs
	// (and keeps) the same assignment.
	if opts.Simulate {
		bres, err := opts.Adversary.PipeBroadcast(t, []Token{{Tag: 0, Value: uint64(res.Cap)}})
		if err != nil {
			return nil, fmt.Errorf("congest: broadcasting winning cap: %w", err)
		}
		bstats := bres.Stats
		res.Stats.Add(bstats)
		book(bstats.Rounds, t.Height()+2)
	} else {
		book(0, t.Height()+2)
	}
	return res, nil
}

// estimateQuality computes one guess's quality estimate —
// maxBlocks · maxAugmentedEcc + congestion — and, in simulate mode, runs
// the in-network protocols realizing it, booking their measured rounds
// into res and validating each convergecast against the ground truth: the
// congestion maximum (a single-token max convergecast), the
// augmented-eccentricity probe (AggregateMin), and the per-part
// block-count sums (a pipelined multi-token convergecast of the locally
// decidable BlockTops indicators — formerly a modeled charge). s is the
// guess's flood-built shortcut, whose flooding state is the converged fixed
// point, so both modes derive the same estimate from it. Its terms come
// from the stored measurement and from probe, the search's shared
// EccProbe: it walks the parts by descending bound and stops at the first
// whose bound is no more than the maximum found, reading the flooding state
// rather than filling the edge lists. The congestion convergecast's inputs
// are the state's per-vertex list lengths; only simulate mode's probe
// protocol and block-count indicators read the lists.
func estimateQuality(g *graph.Graph, t *graph.Tree, p *partition.Parts, s *shortcut.Shortcut, probe *shortcut.EccProbe, simulate bool, adv *Adversary, res *SearchResult) (int, error) {
	m := s.Measure()
	maxEcc, err := probe.MaxAugmentedEcc(s)
	if err != nil {
		return 0, err
	}
	est := m.MaxBlocks*maxEcc + m.Congestion
	if simulate {
		// Per-vertex admitted counts: how many parts use v's parent edge —
		// exactly the |sent| each node's protocol state holds when the
		// construction converges.
		counts := make([]uint64, g.N())
		for v, list := range s.FloodState() {
			counts[v] = uint64(len(list))
		}
		rootMax, mstats, err := treeCombineUnder(t, counts, CombineMax, adv)
		if err != nil {
			return 0, err
		}
		if rootMax != uint64(m.Congestion) {
			return 0, fmt.Errorf("congest: congestion convergecast returned %d, fixed point has %d", rootMax, m.Congestion)
		}
		res.Stats.Add(mstats)
		res.EffectiveRounds += mstats.Rounds
		// The probe: every part floods its minimum member ID over its
		// channels; time-to-quiet tracks the augmented eccentricity under
		// real congestion serialization.
		keys := make([]uint64, g.N())
		for v := range keys {
			keys[v] = uint64(v)
		}
		pres, err := AggregateMinUnder(g, p, s, keys, adv)
		if err != nil {
			return 0, err
		}
		res.Stats.Add(pres.Stats)
		res.EffectiveRounds += pres.EffectiveRounds
		// Block-count convergecast: each vertex tops the admitted chains
		// it can decide locally (BlockTops); the per-part sums stream to
		// the root on the pipelined layer and must reproduce the fixed
		// point's block parameters exactly.
		tops := s.BlockTops()
		total := 0
		for _, ts := range tops {
			total += len(ts)
		}
		backing := make([]Token, 0, total)
		contrib := make([][]Token, g.N())
		for v, ts := range tops {
			if len(ts) == 0 {
				continue
			}
			base := len(backing)
			for _, pi := range ts {
				backing = append(backing, Token{Tag: pi, Value: 1})
			}
			contrib[v] = backing[base:len(backing):len(backing)]
		}
		bres, err := adv.Pipecast(t, p.NumParts(), contrib, CombineCount)
		if err != nil {
			return 0, fmt.Errorf("congest: block-count convergecast: %w", err)
		}
		for i, want := range m.Blocks {
			if bres.Values[i] != uint64(want) {
				return 0, fmt.Errorf("congest: part %d block-count convergecast returned %d, fixed point has %d",
					i, bres.Values[i], want)
			}
		}
		res.Stats.Add(bres.Stats)
		res.EffectiveRounds += bres.EffectiveRounds
	}
	return est, nil
}
