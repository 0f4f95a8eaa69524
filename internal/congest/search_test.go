package congest_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// TestSearchCapModesAgree: the in-network doubling search selects the same
// cap and the identical shortcut in both modes (the estimate is evaluated
// on the shared fixed point), with each mode's rounds exclusively in its
// own ledger.
func TestSearchCapModesAgree(t *testing.T) {
	for _, tc := range constructInstances(t) {
		sim, err := congest.SearchCap(tc.g, tc.tr, tc.p, congest.SearchOptions{Simulate: true})
		if err != nil {
			t.Fatalf("%s simulate: %v", tc.name, err)
		}
		ana, err := congest.SearchCap(tc.g, tc.tr, tc.p, congest.SearchOptions{})
		if err != nil {
			t.Fatalf("%s analytic: %v", tc.name, err)
		}
		if sim.Cap != ana.Cap || sim.Estimate != ana.Estimate || sim.Guesses != ana.Guesses {
			t.Fatalf("%s: modes disagree: simulate (cap %d est %d guesses %d) vs analytic (cap %d est %d guesses %d)",
				tc.name, sim.Cap, sim.Estimate, sim.Guesses, ana.Cap, ana.Estimate, ana.Guesses)
		}
		for i := range sim.S.Edges() {
			if len(sim.S.Edges()[i]) != len(ana.S.Edges()[i]) {
				t.Fatalf("%s part %d: edge sets differ between modes", tc.name, i)
			}
			for j := range sim.S.Edges()[i] {
				if sim.S.Edges()[i][j] != ana.S.Edges()[i][j] {
					t.Fatalf("%s part %d: edge sets differ between modes", tc.name, i)
				}
			}
		}
		if sim.EffectiveRounds <= 0 || sim.ChargedRounds != 0 {
			t.Fatalf("%s simulate: ledgers %d/%d not exclusively simulated", tc.name, sim.EffectiveRounds, sim.ChargedRounds)
		}
		if ana.ChargedRounds <= 0 || ana.EffectiveRounds != 0 || ana.Stats.Messages != 0 {
			t.Fatalf("%s analytic: ledgers %d/%d (messages %d) not exclusively charged",
				tc.name, ana.EffectiveRounds, ana.ChargedRounds, ana.Stats.Messages)
		}
		// The simulate run's closed-form charged equivalent must be exactly
		// what the analytic run charges (that is its contract).
		if sim.ChargedEquivalent != ana.ChargedRounds || ana.ChargedEquivalent != ana.ChargedRounds {
			t.Fatalf("%s: charged equivalents %d/%d do not match the analytic charge %d",
				tc.name, sim.ChargedEquivalent, ana.ChargedEquivalent, ana.ChargedRounds)
		}
	}
}

// referenceSearch is the cap search as it ran before its guesses became
// views of one construction: every doubling cap constructed on its own
// under the block-count ranking, each estimated from its own measurement
// and probe, the lowest estimate winning (ties toward the smaller cap).
func referenceSearch(t *testing.T, g *graph.Graph, tr *graph.Tree, p *partition.Parts) (cap, est int, prio []int32, s *shortcut.Shortcut) {
	t.Helper()
	np := p.NumParts()
	prio = shortcut.TreeBlockPriorities(tr, p)
	est = -1
	for c := 1; ; c *= 2 {
		c := min(c, np)
		guess := shortcut.ConstructPrio(g, tr, p, c, prio)
		m := guess.Measure()
		ecc, err := guess.MaxAugmentedEcc()
		if err != nil {
			t.Fatal(err)
		}
		if e := m.MaxBlocks*ecc + m.Congestion; est == -1 || e < est {
			cap, est, s = c, e, guess
		}
		if c >= np {
			return cap, est, prio, s
		}
	}
}

// TestSearchCapMatchesPerGuessReference: reading every guess as a cap view
// of one cap-P construction changes no result. On the construction
// instances and the Stats pin sweep's Borůvka-fragment instances,
// analytic, simulated and simulated under a faulted adversary, SearchCap
// must return the reference's cap, ranking, estimate, winning flooding
// state and edges.
func TestSearchCapMatchesPerGuessReference(t *testing.T) {
	instances := constructInstances(t)
	for _, in := range pinInstances(t) {
		instances = append(instances, struct {
			name string
			g    *graph.Graph
			tr   *graph.Tree
			p    *partition.Parts
		}{in.name, in.g, in.tr, in.p})
	}
	for _, tc := range instances {
		wantCap, wantEst, wantPrio, want := referenceSearch(t, tc.g, tc.tr, tc.p)
		for _, mode := range []struct {
			name string
			opts congest.SearchOptions
		}{
			{"analytic", congest.SearchOptions{}},
			{"simulate", congest.SearchOptions{Simulate: true}},
			{"faulted", congest.SearchOptions{Simulate: true, Adversary: congest.NewAdversary(testPlan(tc.g))}},
		} {
			res, err := congest.SearchCap(tc.g, tc.tr, tc.p, mode.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, mode.name, err)
			}
			if res.Cap != wantCap || res.Estimate != wantEst || !slices.Equal(res.Priorities, wantPrio) {
				t.Fatalf("%s %s: cap %d estimate %d ranking %v; the per-guess search gives cap %d estimate %d ranking %v",
					tc.name, mode.name, res.Cap, res.Estimate, res.Priorities, wantCap, wantEst, wantPrio)
			}
			if !slices.EqualFunc(res.S.FloodState(), want.FloodState(), slices.Equal[[]int32]) {
				t.Fatalf("%s %s: the winner's flooding state differs from the per-guess search's", tc.name, mode.name)
			}
			if !slices.EqualFunc(res.S.Edges(), want.Edges(), slices.Equal[[]int]) {
				t.Fatalf("%s %s: the winner's edges differ from the per-guess search's", tc.name, mode.name)
			}
		}
	}
}

// TestSimulatedCapStateTruncates: the flood-and-evict protocol run at cap
// P, the part count, converges to a state whose first c ranks at every
// vertex are ConstructPrio's state at cap c, for every doubling cap c — so
// one protocol run serves every guess of the search.
func TestSimulatedCapStateTruncates(t *testing.T) {
	for _, tc := range constructInstances(t) {
		np := tc.p.NumParts()
		prio := shortcut.TreeBlockPriorities(tc.tr, tc.p)
		cres, err := congest.ConstructShortcut(tc.g, tc.tr, tc.p, congest.ConstructOptions{Cap: np, Simulate: true, Priorities: prio})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		state, err := congest.ConstructState(tc.g, tc.tr, tc.p, np, cres.Budget, prio)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for c := 1; ; c *= 2 {
			c := min(c, np)
			want := shortcut.ConstructPrio(tc.g, tc.tr, tc.p, c, prio).FloodState()
			for v, l := range state {
				if got := l[:min(len(l), c)]; !slices.Equal(got, want[v]) {
					t.Fatalf("%s cap %d: vertex %d's protocol state %v cut to %v, ConstructPrio admits %v", tc.name, c, v, l, got, want[v])
				}
			}
			if c >= np {
				break
			}
		}
	}
}

// TestSearchCapGuessCount: the doubling loop is tight — caps are clamped
// to the part count with no wasted extra iteration (the ConstructAuto
// regression, pinned for the in-network search too).
func TestSearchCapGuessCount(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	e := gen.Grid(6, 6)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ parts, guesses int }{{1, 1}, {4, 3}, {5, 4}} {
		p, err := partition.Voronoi(e.G, tc.parts, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := congest.SearchCap(e.G, tr, p, congest.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Guesses != tc.guesses {
			t.Fatalf("%d parts: %d guesses, want %d", tc.parts, res.Guesses, tc.guesses)
		}
	}
}

// TestSearchCapEmptyParts: an empty part family is an explicit error.
func TestSearchCapEmptyParts(t *testing.T) {
	e := gen.Grid(3, 3)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.New(e.G, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := congest.SearchCap(e.G, tr, p, congest.SearchOptions{Simulate: true}); err == nil {
		t.Fatal("empty part family accepted")
	}
}

// TestSearchCapTracksCentralSweep: the in-network estimate may pick a
// different cap than the exact central sweep, but the quality it settles
// for must stay within a constant factor of the sweep's optimum.
func TestSearchCapTracksCentralSweep(t *testing.T) {
	for _, tc := range constructInstances(t) {
		res, err := congest.SearchCap(tc.g, tc.tr, tc.p, congest.SearchOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		auto, err := shortcut.ConstructAuto(tc.g, tc.tr, tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := res.S.Measure().Quality
		if got > 2*auto.M.Quality {
			t.Fatalf("%s: in-network search quality %d more than 2x the central sweep's %d",
				tc.name, got, auto.M.Quality)
		}
	}
}

// TestBootstrapPrioritiesMeasured: the priority bootstrap runs message-
// level in simulate mode — real messages, measured rounds within the
// pipelined 2·(height + parts + 1) bound, fixed points identical to the
// sequential functions — and charges PriorityBudget only in analytic mode
// (the modeled simulated charge is gone).
func TestBootstrapPrioritiesMeasured(t *testing.T) {
	for _, tc := range constructInstances(t) {
		sim, err := congest.BootstrapPrioritiesUnder(tc.tr, tc.p, true, nil)
		if err != nil {
			t.Fatalf("%s simulate: %v", tc.name, err)
		}
		ana, err := congest.BootstrapPrioritiesUnder(tc.tr, tc.p, false, nil)
		if err != nil {
			t.Fatalf("%s analytic: %v", tc.name, err)
		}
		wantCounts := shortcut.TreeBlockCounts(tc.tr, tc.p)
		wantPrio := shortcut.TreeBlockPriorities(tc.tr, tc.p)
		for _, res := range []*congest.BootstrapResult{sim, ana} {
			for i := range wantCounts {
				if res.Counts[i] != wantCounts[i] || res.Priorities[i] != wantPrio[i] {
					t.Fatalf("%s: bootstrap fixed point diverges from the sequential functions", tc.name)
				}
			}
		}
		bound := 2 * (tc.tr.Height() + tc.p.NumParts() + 1)
		if sim.EffectiveRounds < 1 || sim.EffectiveRounds > bound {
			t.Fatalf("%s simulate: %d measured rounds outside (0, %d]", tc.name, sim.EffectiveRounds, bound)
		}
		if sim.Stats.Messages == 0 || sim.ChargedRounds != 0 {
			t.Fatalf("%s simulate: messages %d, charged %d — not message-level/exclusive",
				tc.name, sim.Stats.Messages, sim.ChargedRounds)
		}
		if ana.ChargedRounds != congest.PriorityBudget(tc.tr, tc.p) || ana.EffectiveRounds != 0 || ana.Stats.Messages != 0 {
			t.Fatalf("%s analytic: ledgers %d/%d (messages %d) not exclusively charged",
				tc.name, ana.EffectiveRounds, ana.ChargedRounds, ana.Stats.Messages)
		}
		// The cap search reports exactly the measured bootstrap in simulate
		// mode (no PriorityBudget term on the simulated ledger).
		sres, err := congest.SearchCap(tc.g, tc.tr, tc.p, congest.SearchOptions{Simulate: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sres.BootstrapRounds != sim.EffectiveRounds {
			t.Fatalf("%s: search booked bootstrap %d, the protocol measures %d",
				tc.name, sres.BootstrapRounds, sim.EffectiveRounds)
		}
	}
}

// BenchmarkSearchCap times the doubling cap search per guess on the
// search stages of two end-to-end workloads, each cut into about √n
// Borůvka fragments. analytic is grid-analytic's: a 160×160 grid with its
// BFS tree from vertex 0. simulate is chain-simulate's, every protocol
// message-level: the 20×31 wheel chain at seed 7 with the canonical BFS
// tree from the elected leader (130 parts); it also reports the engine
// rounds and the effective rounds of one search.
func BenchmarkSearchCap(b *testing.B) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		simulate bool
	}{
		{"analytic", gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.GridCSR(160, 160), rand.New(rand.NewSource(2018)))).Graph(), false},
		{"simulate", gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.WheelChainCSR(20, 31), xrand.New(7))).Graph(), true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.g
			tr, err := graph.BFSTree(g, 0)
			if tc.simulate {
				var parent, parentEdge []int
				if parent, parentEdge, err = congest.CanonicalBFSParents(g, 0); err == nil {
					tr, err = graph.TreeFromParents(g, 0, parent, parentEdge)
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			p, err := partition.BoruvkaFragments(g, decomposePhases(b, g))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			guesses, rounds, effective := 0, 0, 0
			for b.Loop() {
				res, err := congest.SearchCap(g, tr, p, congest.SearchOptions{Simulate: tc.simulate})
				if err != nil {
					b.Fatal(err)
				}
				guesses += res.Guesses
				rounds += res.Stats.Rounds
				effective += res.EffectiveRounds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(guesses), "ns/guess")
			b.ReportMetric(float64(p.NumParts()), "parts")
			if tc.simulate {
				b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				b.ReportMetric(float64(effective)/float64(b.N), "effective-rounds/op")
			}
		})
	}
}
