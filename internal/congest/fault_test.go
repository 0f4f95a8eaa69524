package congest_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// faultedTranscript runs a round-driven flooding protocol under a fault
// plan and returns a full transcript — every delivery at every node, in
// order, plus the final stats. The engine promises this is a pure function
// of (graph, protocol, plan): scheduling and GOMAXPROCS must not leak into
// which messages are dropped.
func faultedTranscript(t *testing.T, g *graph.Graph, rounds int, plan *congest.FaultPlan) string {
	t.Helper()
	sb := make([]strings.Builder, g.N())
	proto := func(*congest.Node) congest.RoundFunc {
		r := 0
		return func(n *congest.Node, msgs []congest.Message) bool {
			for _, m := range msgs {
				fmt.Fprintf(&sb[n.ID], "p%d f%d w%d;", m.Port, m.From, m.Payload[0])
			}
			if r == rounds {
				return false
			}
			n.Broadcast(congest.Words{uint64(n.ID)})
			r++
			return true
		}
	}
	// Crashes stall the crashed node's local round counter, so the engine
	// budget needs headroom beyond the per-node round count.
	stats, err := congest.RunSync(g, proto, congest.Options{MaxRounds: 2*rounds + 16, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for v := range sb {
		fmt.Fprintf(&out, "node %d: %s\n", v, sb[v].String())
	}
	fmt.Fprintf(&out, "stats: %+v\n", stats)
	return out.String()
}

// transcriptFaultPlan is the transcript tests' adversary: Bernoulli
// drops, two link outages, a crash/restart and a wiped crash/restart.
func transcriptFaultPlan() *congest.FaultPlan {
	return &congest.FaultPlan{
		Seed:      99,
		DropProb:  0.3,
		LinkDowns: []congest.LinkDown{{Edge: 3, From: 2, To: 9}, {Edge: 17, From: 1, To: 5}},
		Crashes:   []congest.Crash{{Node: 11, Round: 4, Restart: 9}, {Node: 30, Round: 2, Restart: 12, Wipe: true}},
	}
}

// TestFaultedTranscriptIdenticalAcrossGOMAXPROCS is the determinism
// acceptance for the fault layer: the same faulted run — Bernoulli drops,
// a link outage, a crash/restart — yields byte-identical transcripts under
// GOMAXPROCS=1 and GOMAXPROCS=8. Run under -race in CI.
func TestFaultedTranscriptIdenticalAcrossGOMAXPROCS(t *testing.T) {
	e := gen.Grid(7, 9)
	plan := transcriptFaultPlan()
	prev := runtime.GOMAXPROCS(1)
	one := faultedTranscript(t, e.G, 14, plan)
	runtime.GOMAXPROCS(8)
	eight := faultedTranscript(t, e.G, 14, plan)
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("faulted transcripts differ between GOMAXPROCS=1 and GOMAXPROCS=8:\n--- 1 ---\n%s\n--- 8 ---\n%s", one, eight)
	}
	if !strings.Contains(one, "Dropped:") {
		t.Fatalf("transcript stats carry no fault counters: %s", one)
	}
}

// TestFaultedPipecastIdenticalAcrossGOMAXPROCS runs the resilient pipelined
// convergecast under a fault plan at both GOMAXPROCS settings and requires
// identical values, rounds, stats, and retry counts.
func TestFaultedPipecastIdenticalAcrossGOMAXPROCS(t *testing.T) {
	e := gen.Grid(6, 7)
	tr, err := graph.BFSTree(e.G, 0)
	if err != nil {
		t.Fatal(err)
	}
	const numTags = 5
	contrib := make([][]congest.Token, e.G.N())
	for v := range contrib {
		contrib[v] = []congest.Token{{Tag: int32(v % numTags), Value: uint64(v + 1)}}
	}
	plan := congest.FaultPlan{
		Seed:      7,
		DropProb:  0.15,
		DropUntil: 120,
		LinkDowns: []congest.LinkDown{{Edge: 1, From: 3, To: 11}},
		Crashes:   []congest.Crash{{Node: 13, Round: 2, Restart: 8}},
	}
	run := func() string {
		adv := congest.NewAdversary(plan)
		res, err := adv.Pipecast(tr, numTags, contrib, congest.CombineSum)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v %d %+v retries=%d consumed=%d",
			res.Values, res.Present, res.EffectiveRounds, res.Stats, adv.Retries, adv.Consumed())
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	eight := run()
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("faulted pipecast differs:\nGOMAXPROCS=1: %s\nGOMAXPROCS=8: %s", one, eight)
	}
	// The faulted result must equal the fault-free fixed point.
	clean, err := congest.Pipecast(tr, numTags, contrib, congest.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := congest.NewAdversary(plan).Pipecast(tr, numTags, contrib, congest.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	for tag, want := range clean.Values {
		if fres.Values[tag] != want {
			t.Fatalf("tag %d: faulted value %d, fault-free %d", tag, fres.Values[tag], want)
		}
	}
}

// TestOptionsValidation pins the explicit Options/FaultPlan validation:
// malformed configurations are rejected with ErrInvalidOptions before the
// run starts.
func TestOptionsValidation(t *testing.T) {
	g := gen.Path(4)
	noop := func(*congest.Node) congest.RoundFunc {
		return func(*congest.Node, []congest.Message) bool { return false }
	}
	cases := []struct {
		name string
		opts congest.Options
	}{
		{"negative bandwidth", congest.Options{Bandwidth: -1}},
		{"negative max rounds", congest.Options{MaxRounds: -5}},
		{"drop prob above one", congest.Options{Faults: &congest.FaultPlan{DropProb: 1.5}}},
		{"drop prob negative", congest.Options{Faults: &congest.FaultPlan{DropProb: -0.1}}},
		{"drop prob NaN", congest.Options{Faults: &congest.FaultPlan{DropProb: math.NaN()}}},
		{"negative offset", congest.Options{Faults: &congest.FaultPlan{Offset: -1}}},
		{"negative drop horizon", congest.Options{Faults: &congest.FaultPlan{DropUntil: -2}}},
		{"link-down edge out of range", congest.Options{Faults: &congest.FaultPlan{LinkDowns: []congest.LinkDown{{Edge: 99, From: 1, To: 2}}}}},
		{"link-down zero-based round", congest.Options{Faults: &congest.FaultPlan{LinkDowns: []congest.LinkDown{{Edge: 0, From: 0, To: 2}}}}},
		{"link-down inverted interval", congest.Options{Faults: &congest.FaultPlan{LinkDowns: []congest.LinkDown{{Edge: 0, From: 5, To: 5}}}}},
		{"crash node out of range", congest.Options{Faults: &congest.FaultPlan{Crashes: []congest.Crash{{Node: 4, Round: 1, Restart: 2}}}}},
		{"crash inverted interval", congest.Options{Faults: &congest.FaultPlan{Crashes: []congest.Crash{{Node: 0, Round: 3, Restart: 3}}}}},
	}
	for _, tc := range cases {
		if _, err := congest.RunSync(g, noop, tc.opts); !errors.Is(err, congest.ErrInvalidOptions) {
			t.Errorf("%s: got %v, want ErrInvalidOptions", tc.name, err)
		}
	}
	// A well-formed crash plan is accepted.
	crash := congest.Options{MaxRounds: 4, Faults: &congest.FaultPlan{Crashes: []congest.Crash{{Node: 1, Round: 1, Restart: 2}}}}
	if _, err := congest.RunSync(g, noop, crash); err != nil {
		t.Errorf("run with crashes: %v", err)
	}
}

// TestDropsAreCountedAndTotal pins the drop bookkeeping: with DropProb 1
// and no horizon every delivery is dropped and counted, and nodes hear
// nothing.
func TestDropsAreCountedAndTotal(t *testing.T) {
	g := gen.Cycle(6)
	heard := make([]int, g.N()) // per-node: RoundFuncs run on shard workers
	proto := func(*congest.Node) congest.RoundFunc {
		r := 0
		return func(n *congest.Node, msgs []congest.Message) bool {
			heard[n.ID] += len(msgs)
			if r == 5 {
				return false
			}
			n.Broadcast(congest.Words{1})
			r++
			return true
		}
	}
	stats, err := congest.RunSync(g, proto, congest.Options{MaxRounds: 16, Faults: &congest.FaultPlan{DropProb: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for v, h := range heard {
		if h != 0 {
			t.Fatalf("node %d heard %d messages under DropProb=1", v, h)
		}
	}
	if stats.Dropped == 0 {
		t.Fatalf("no drops counted: %+v", stats)
	}
}

// FuzzFaultPlan fuzzes the plan event merging: Normalize (sort + merge of
// overlapping intervals) must not change the plan's observable schedule —
// DownAt and CrashedAt agree with the un-normalized plan at every (target,
// round), and so does whether each restart wipes the node — and must be
// idempotent. Each event is three bytes: the target, the first round, and
// the length less one (low four bits) with the wipe flag (bit 4).
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{1, 2, 17, 0, 3, 23, 1, 1, 4})
	f.Add([]byte{0, 1, 2, 0, 1, 19, 0, 2, 21, 1, 4, 17})
	f.Add([]byte{})
	// Node 0 crashes over [1,10) with a wipe and over [5,20) without: its
	// one restart, at round 20, keeps its state.
	f.Add([]byte{0, 0, 24, 0, 4, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, m, horizon = 4, 6, 24
		plan := &congest.FaultPlan{}
		for i := 0; i+2 < len(data); i += 3 {
			target := int(data[i] % 8)
			from := int(data[i+1]%(horizon-2)) + 1
			to := from + int(data[i+2]%16) + 1
			if target < m {
				plan.LinkDowns = append(plan.LinkDowns, congest.LinkDown{Edge: target, From: from, To: to})
			}
			if target < n {
				plan.Crashes = append(plan.Crashes, congest.Crash{
					Node: target, Round: from, Restart: to, Wipe: data[i+2]&16 != 0})
			}
		}
		if err := plan.Validate(n, m); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
		norm := plan.Clone()
		norm.Normalize()
		if err := norm.Validate(n, m); err != nil {
			t.Fatalf("normalized plan invalid: %v", err)
		}
		for gr := 0; gr <= horizon+16; gr++ {
			for e := 0; e < m; e++ {
				if plan.DownAt(e, gr) != norm.DownAt(e, gr) {
					t.Fatalf("edge %d round %d: DownAt changed by Normalize (%v -> %v)",
						e, gr, plan.DownAt(e, gr), norm.DownAt(e, gr))
				}
			}
			for v := 0; v < n; v++ {
				if plan.CrashedAt(v, gr) != norm.CrashedAt(v, gr) {
					t.Fatalf("node %d round %d: CrashedAt changed by Normalize (%v -> %v)",
						v, gr, plan.CrashedAt(v, gr), norm.CrashedAt(v, gr))
				}
				restart := plan.CrashedAt(v, gr-1) && !plan.CrashedAt(v, gr)
				if restart && plan.WipesAt(v, gr) != norm.WipesAt(v, gr) {
					t.Fatalf("node %d restart at round %d: wipe changed by Normalize (%v -> %v)",
						v, gr, plan.WipesAt(v, gr), norm.WipesAt(v, gr))
				}
			}
		}
		again := norm.Clone()
		again.Normalize()
		if len(again.LinkDowns) != len(norm.LinkDowns) || len(again.Crashes) != len(norm.Crashes) {
			t.Fatalf("Normalize not idempotent: %d/%d downs, %d/%d crashes",
				len(norm.LinkDowns), len(again.LinkDowns), len(norm.Crashes), len(again.Crashes))
		}
	})
}
