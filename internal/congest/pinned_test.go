package congest_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// pinInstance is one graph of the Stats pin sweep with the tree, parts and
// shortcut every protocol of the sweep runs over.
type pinInstance struct {
	name string
	g    *graph.Graph
	tr   *graph.Tree
	p    *partition.Parts
	s    *shortcut.Shortcut
}

// pinInstances builds the sweep's graphs with distinct weights: the
// canonical BFS tree from vertex 0, two Borůvka phases as parts, and the
// cap-2 flooding shortcut.
func pinInstances(t *testing.T) []pinInstance {
	t.Helper()
	var out []pinInstance
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.DistinctWeights(gen.UniformWeights(gen.Grid(7, 9).G, xrand.New(3)))},
		{"wheel", gen.DistinctWeights(gen.UniformWeights(gen.Wheel(65).G, xrand.New(5)))},
		{"chain", gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.WheelChainCSR(6, 11), xrand.New(7))).Graph()},
	} {
		parent, parentEdge, err := congest.CanonicalBFSParents(tc.g, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := graph.TreeFromParents(tc.g, 0, parent, parentEdge)
		if err != nil {
			t.Fatal(err)
		}
		p, err := partition.BoruvkaFragments(tc.g, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pinInstance{tc.name, tc.g, tr, p, shortcut.Construct(tc.g, tr, p, 2)})
	}
	return out
}

// pinRow is one protocol run's pinned outcome: its Stats.Rounds, and a
// digest of its full Stats, its result, its error and, for the floods, its
// OnRound probe sequence.
type pinRow struct {
	name   string
	rounds int
	digest string
}

// pinRun runs every protocol of the sweep on one instance, fault free when
// plan is nil and under plan otherwise (the floods take it as engine
// options, the rest through an Adversary; the two relaxations have no
// faulted entry point and run only fault free).
func pinRun(in pinInstance, plan *congest.FaultPlan) []pinRow {
	g, tr, p, s := in.g, in.tr, in.p, in.s
	n := g.N()
	var rows []pinRow
	add := func(name string, stats congest.Stats, err error, result ...any) {
		h := sha256.New()
		fmt.Fprintf(h, "%+v|%v|", stats, err)
		for _, r := range result {
			if hh, ok := r.(hash.Hash); ok {
				fmt.Fprintf(h, "%x|", hh.Sum(nil))
				continue
			}
			fmt.Fprintf(h, "%v|", r)
		}
		rows = append(rows, pinRow{in.name + "/" + name, stats.Rounds, fmt.Sprintf("%x", h.Sum(nil))[:16]})
	}
	newAdv := func() *congest.Adversary {
		if plan == nil {
			return nil
		}
		return congest.NewAdversary(*plan)
	}
	probes := func() (hash.Hash, congest.Options) {
		h := sha256.New()
		opts := congest.Options{Faults: plan, OnRound: func(pr congest.RoundProbe) {
			fmt.Fprintf(h, "%d %d %d %d;", pr.Round, pr.Messages, pr.Bits, pr.Active)
		}}
		return h, opts
	}
	advState := func(a *congest.Adversary) string {
		if a == nil {
			return "fault free"
		}
		return fmt.Sprintf("retries %d consumed %d", a.Retries, a.Consumed())
	}
	diam := 2*graph.DiameterApprox(g) + 2

	h, opts := probes()
	leader, stats, err := congest.LeaderElectSync(g, diam, opts)
	add("elect", stats, err, leader, h)

	h, opts = probes()
	parent, parentEdge, stats, err := congest.DistributedBFSSync(g, 0, diam, opts)
	add("bfs", stats, err, parent, parentEdge, h)

	for _, c := range []int{1, 2, 4, 64} {
		adv := newAdv()
		res, err := congest.ConstructShortcut(g, tr, p, congest.ConstructOptions{Cap: c, Simulate: true, Adversary: adv})
		if err != nil {
			add(fmt.Sprintf("construct/cap=%d", c), congest.Stats{}, err)
			continue
		}
		add(fmt.Sprintf("construct/cap=%d", c), res.Stats, nil, res.S.Edges(), res.EffectiveRounds, res.Budget, advState(adv))
	}

	keys := make([]uint64, n)
	for v := range keys {
		keys[v] = uint64(v)*2654435761%1000003 + 17
	}
	adv := newAdv()
	if ares, err := congest.AggregateMinUnder(g, p, s, keys, adv); err != nil {
		add("aggregate", congest.Stats{}, err)
	} else {
		add("aggregate", ares.Stats, nil, ares.Mins, ares.EffectiveRounds, ares.Budget, advState(adv))
	}

	if plan == nil {
		weights := edgeWeights(g)
		init := make([][]float64, 5)
		for i := range init {
			init[i] = infInit(n, (i*13)%n)
		}
		if bres, err := congest.NewBatchRelaxer(g, p, s).Relax(weights, init); err != nil {
			add("batchrelax/k=5", congest.Stats{}, err)
		} else {
			add("batchrelax/k=5", bres.Stats, nil, bres.Dist, bres.EffectiveRounds, bres.Budget)
		}
		if rres, err := congest.RelaxBellmanFord(g, weights, init[0]); err != nil {
			add("bellmanford", congest.Stats{}, err)
		} else {
			add("bellmanford", rres.Stats, nil, rres.Dist, rres.EffectiveRounds, rres.Budget)
		}
	}

	const numTags = 16
	adv = newAdv()
	if pres, err := adv.Pipecast(tr, numTags, randomContrib(n, numTags, xrand.New(11)), congest.CombineSum); err != nil {
		add("pipecast", congest.Stats{}, err)
	} else {
		add("pipecast", pres.Stats, nil, pres.Values, pres.Present, pres.EffectiveRounds, advState(adv))
	}
	tokens := make([]congest.Token, numTags)
	for i := range tokens {
		tokens[i] = congest.Token{Tag: int32(i), Value: uint64(i*i + 3)}
	}
	adv = newAdv()
	if bres, err := adv.PipeBroadcast(tr, tokens); err != nil {
		add("pipebroadcast", congest.Stats{}, err)
	} else {
		add("pipebroadcast", bres.Stats, nil, bres.EffectiveRounds, advState(adv))
	}

	adv = newAdv()
	if sres, err := congest.SearchCap(g, tr, p, congest.SearchOptions{Simulate: true, Adversary: adv}); err != nil {
		add("searchcap", congest.Stats{}, err)
	} else {
		add("searchcap", sres.Stats, nil, sres.Cap, sres.Estimate, sres.Guesses, sres.Priorities, sres.S.Edges(),
			sres.BootstrapRounds, sres.EffectiveRounds, sres.ChargedEquivalent, advState(adv))
	}
	return rows
}

// pinnedStats are the sweep's outcomes under an engine that calls every
// live node in every round: sleeping nodes and skipped silent rounds must
// not move any Stats field, result, error or probe sequence of a run.
var pinnedStats = []pinRow{
	{"grid/elect", 32, "42bc804f8891e3f5"},
	{"grid/bfs", 16, "0ceb9122a2ed6881"},
	{"grid/construct/cap=1", 57, "813c42fe4b848328"},
	{"grid/construct/cap=2", 73, "deb9cd1be36fcc0f"},
	{"grid/construct/cap=4", 105, "503dfc18a9873ebe"},
	{"grid/construct/cap=64", 1065, "fdfefcbd0b355cf7"},
	{"grid/aggregate", 207, "073dac31574ac9f1"},
	{"grid/batchrelax/k=5", 211, "9365ce03b3c050c9"},
	{"grid/bellmanford", 17, "11bbe10059233cc0"},
	{"grid/pipecast", 25, "5dc7572edab4be45"},
	{"grid/pipebroadcast", 30, "62b70fd8e855a76b"},
	{"grid/searchcap", 810, "a9a4f15479fd15bd"},
	{"grid/elect/faulted", 44, "48bf42415528f658"},
	{"grid/bfs/faulted", 44, "07ee7fd46baaf4b4"},
	{"grid/construct/cap=1/faulted", 225, "c7af65c809227eec"},
	{"grid/construct/cap=2/faulted", 145, "58c6b3bf6a96d576"},
	{"grid/construct/cap=4/faulted", 209, "7e1b8f1faaf58800"},
	{"grid/construct/cap=64/faulted", 2129, "7de3ec04b08b1a59"},
	{"grid/aggregate/faulted", 413, "168c56fa6899cfba"},
	{"grid/pipecast/faulted", 25, "360a0e4dd6626891"},
	{"grid/pipebroadcast/faulted", 30, "12d0dc5fd5b34f2a"},
	{"grid/searchcap/faulted", 810, "f551812582cd94a8"},
	{"wheel/elect", 8, "055f69a84a949c56"},
	{"wheel/bfs", 4, "00485933646c8cc9"},
	{"wheel/construct/cap=1", 21, "1c14440c6cdb12b9"},
	{"wheel/construct/cap=2", 25, "f28e0fbe64f333bd"},
	{"wheel/construct/cap=4", 33, "79ed3c476d879424"},
	{"wheel/construct/cap=64", 273, "bfb819cc581bf637"},
	{"wheel/aggregate", 22, "5060ce07972b50a8"},
	{"wheel/batchrelax/k=5", 26, "0bf624966ba705e7"},
	{"wheel/bellmanford", 17, "fc96ac9027811cf6"},
	{"wheel/pipecast", 18, "5a7d76216db3eec5"},
	{"wheel/pipebroadcast", 18, "143a5180c2b8baf3"},
	{"wheel/searchcap", 54, "755bd6358c146d50"},
	{"wheel/elect/faulted", 20, "fa7ab459d1c5bebf"},
	{"wheel/bfs/faulted", 20, "af7f660b0926a1fd"},
	{"wheel/construct/cap=1/faulted", 33, "c40c3c058e35dcd2"},
	{"wheel/construct/cap=2/faulted", 37, "36d2ff011e073b65"},
	{"wheel/construct/cap=4/faulted", 45, "54b3eb5804d202d8"},
	{"wheel/construct/cap=64/faulted", 285, "92a8947e078073df"},
	{"wheel/aggregate/faulted", 85, "45d08fafb41d20ae"},
	{"wheel/pipecast/faulted", 18, "7ab4e9075a5ac958"},
	{"wheel/pipebroadcast/faulted", 18, "98745db712bd42a4"},
	{"wheel/searchcap/faulted", 54, "877730505dc739a4"},
	{"chain/elect", 18, "26a6e86b25e1af54"},
	{"chain/bfs", 9, "e66f0a01d5035f6f"},
	{"chain/construct/cap=1", 36, "79cc0cf98d8202d1"},
	{"chain/construct/cap=2", 45, "4a106d0faf2ee723"},
	{"chain/construct/cap=4", 63, "a14fac2e5a4f8a1f"},
	{"chain/construct/cap=64", 603, "6298c8bfc76ca62d"},
	{"chain/aggregate", 53, "d8dd442be2e13709"},
	{"chain/batchrelax/k=5", 57, "7ad419793de08884"},
	{"chain/bellmanford", 17, "73034741496787ec"},
	{"chain/pipecast", 21, "8a92c986f5706832"},
	{"chain/pipebroadcast", 23, "cc095ba80a52d30a"},
	{"chain/searchcap", 350, "248474d39530f832"},
	{"chain/elect/faulted", 30, "64658482f50c115b"},
	{"chain/bfs/faulted", 30, "70b0a553563e4f30"},
	{"chain/construct/cap=1/faulted", 71, "1a3dd1848eff6c1c"},
	{"chain/construct/cap=2/faulted", 177, "914a01b5ee02f17f"},
	{"chain/construct/cap=4/faulted", 249, "6c5ac11a1b8a2fdd"},
	{"chain/construct/cap=64/faulted", 1205, "2ef482d1dd13b0db"},
	{"chain/aggregate/faulted", 209, "cbf9036ebc5c6463"},
	{"chain/pipecast/faulted", 21, "5a45539706cd1a90"},
	{"chain/pipebroadcast/faulted", 23, "c2487999751a2052"},
	{"chain/searchcap/faulted", 350, "1c11e887a79bba8f"},
}

// TestProtocolStatsPinned runs every protocol on three instances fault
// free and under testPlan with its wiping crash made non-wiping, and
// requires the pinned Stats, results and OnRound sequences.
func TestProtocolStatsPinned(t *testing.T) {
	var got []pinRow
	for _, in := range pinInstances(t) {
		plan := testPlan(in.g)
		for i := range plan.Crashes {
			plan.Crashes[i].Wipe = false
		}
		got = append(got, pinRun(in, nil)...)
		for _, r := range pinRun(in, &plan) {
			r.name += "/faulted"
			got = append(got, r)
		}
	}
	var table strings.Builder
	for _, r := range got {
		fmt.Fprintf(&table, "\t{%q, %d, %q},\n", r.name, r.rounds, r.digest)
	}
	if len(got) != len(pinnedStats) {
		t.Fatalf("sweep has %d rows, %d pinned; the sweep now gives:\n%s", len(got), len(pinnedStats), table.String())
	}
	for i, r := range got {
		if r != pinnedStats[i] {
			t.Errorf("%s: rounds %d digest %s, pinned %d %s", r.name, r.rounds, r.digest, pinnedStats[i].rounds, pinnedStats[i].digest)
		}
	}
	if t.Failed() {
		t.Logf("the sweep now gives:\n%s", table.String())
	}
}

// TestProtocolStatsUnderWipe pins a run under testPlan's wiping crash.
// Construction counts its budget with Node.Round, which a wiped restart
// resets, so the wheel's cap-1 construction runs its restarted node a full
// budget from the restart: 38 rounds, where a count kept across the wipe
// gives 33.
func TestProtocolStatsUnderWipe(t *testing.T) {
	in := pinInstances(t)[1] // the wheel
	plan := testPlan(in.g)
	want := pinRow{"wheel/construct/cap=1", 38, "f52be4e8feec22f6"}
	for _, r := range pinRun(in, &plan) {
		if r.name == want.name && r != want {
			t.Errorf("%s under a wiping crash: rounds %d digest %s, pinned %d %s", r.name, r.rounds, r.digest, want.rounds, want.digest)
		}
	}
}
