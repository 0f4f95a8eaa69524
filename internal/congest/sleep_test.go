package congest_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sleepMix is a splitmix64 hash of (v, r, salt) for the sleep tests'
// schedules.
func sleepMix(v, r, salt int) uint64 {
	h := uint64(v)<<40 ^ uint64(r)<<20 ^ uint64(salt) + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// sleepRun is one run of sleepyProto: every non-empty inbox with its round,
// the Stats, the error and the OnRound probes, plus the RoundFunc calls
// made in each round.
type sleepRun struct {
	transcript string
	calls      []int32 // calls[r]: RoundFunc calls in round r
}

// sleepyProto runs a sparse-traffic protocol on g. A node acts when it has
// mail or reaches its own wake round: it sends on some of the ports
// sparseSelect picks (on all of them in every eighth round, so traffic
// comes in bursts that die out) and chooses its next wake by hash: the next
// round, a later multiple of 8, or its exit round last(v) (the "until mail"
// choice, capped so that the node is called to exit). Wakes and exits that
// fall on multiples of 8 leave silent stretches between the bursts. Called
// with an empty inbox before its wake, a node does nothing. With sleep set
// it tells the engine its wake through SleepUntil; without, it keeps the
// same bookkeeping and the engine calls it every round. Both forms must be
// indistinguishable from outside.
func sleepyProto(t *testing.T, g *graph.Graph, sleep bool, opts congest.Options) sleepRun {
	t.Helper()
	n := g.N()
	last := func(v int) int { return 48 + 8*(v%5) + v%7/6*3 }
	wake := make([]int, n)
	sb := make([]strings.Builder, n)
	calls := make([]atomic.Int32, opts.MaxRounds+3)
	step := congest.RoundFunc(func(nd *congest.Node, msgs []congest.Message) bool {
		v, r := nd.ID, nd.Round()
		calls[min(r, len(calls)-1)].Add(1)
		if len(msgs) == 0 && r < wake[v] {
			if sleep {
				nd.SleepUntil(wake[v])
			}
			return true
		}
		for _, m := range msgs {
			fmt.Fprintf(&sb[v], "r%d p%d f%d w%x;", r, m.Port, m.From, m.Payload[0])
		}
		if r >= last(v) {
			return false
		}
		for p := 0; p < g.Degree(v); p++ {
			if sparseSelect(v, r, p) && (r%8 == 0 || sleepMix(v, r, p+2)%4 == 0) {
				nd.Send(p, congest.Words{uint64(v)<<20 | uint64(r)})
			}
		}
		switch h := sleepMix(v, r, 1); h % 4 {
		case 0:
			wake[v] = r + 1
		case 1, 2:
			wake[v] = r - r%8 + 8*(1+int(h>>8%3))
		default:
			wake[v] = math.MaxInt
		}
		wake[v] = min(wake[v], last(v))
		if sleep {
			nd.SleepUntil(wake[v])
		}
		return true
	})
	var probes strings.Builder
	opts.OnRound = func(pr congest.RoundProbe) {
		fmt.Fprintf(&probes, "%d/%d/%d/%d ", pr.Round, pr.Messages, pr.Bits, pr.Active)
	}
	// The factory resets the node's wake, so a wiped restart acts at once.
	proto := func(nd *congest.Node) congest.RoundFunc {
		wake[nd.ID] = 0
		return step
	}
	stats, err := congest.RunSync(g, proto, opts)
	var out strings.Builder
	for v := range sb {
		fmt.Fprintf(&out, "node %d: %s\n", v, sb[v].String())
	}
	fmt.Fprintf(&out, "stats: %+v\nerr: %v\nprobes: %s\n", stats, err, probes.String())
	run := sleepRun{transcript: out.String(), calls: make([]int32, len(calls))}
	for r := range calls {
		run.calls[r] = calls[r].Load()
	}
	return run
}

// TestSleepingAndEveryRoundSchedulesAgree runs the sleeping protocol and
// its every-round twin on a grid and a wheel, plainly and under drops,
// link-downs, a crash and a wiped crash (whose restart the engine must not
// skip), at GOMAXPROCS 1, 2 and 8: transcripts, Stats and OnRound probes
// must be identical. Fault free, the sleeping form must make fewer calls
// and some rounds must pass with no call at all, which only the engine's
// silent-round skip produces.
func TestSleepingAndEveryRoundSchedulesAgree(t *testing.T) {
	plan := congest.FaultPlan{
		Seed:      5,
		DropProb:  0.25,
		LinkDowns: []congest.LinkDown{{Edge: 3, From: 2, To: 19}, {Edge: 17, From: 1, To: 7}},
		// Two of the crash windows fall where fault-free runs go silent.
		Crashes: []congest.Crash{
			{Node: 11, Round: 4, Restart: 21}, {Node: 34, Round: 76, Restart: 79},
			{Node: 30, Round: 10, Restart: 27, Wipe: true}, {Node: 19, Round: 60, Restart: 64, Wipe: true},
		},
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		plan *congest.FaultPlan
	}{
		{"grid", gen.Grid(7, 9).G, nil},
		{"grid/faulted", gen.Grid(7, 9).G, &plan},
		{"wheel", gen.Wheel(65).G, nil},
		{"wheel/faulted", gen.Wheel(65).G, &plan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			opts := congest.Options{MaxRounds: 200, Faults: tc.plan}
			twin := sleepyProto(t, tc.g, false, opts)
			if !strings.Contains(twin.transcript, "err: <nil>") {
				t.Fatalf("the every-round twin failed:\n%s", twin.transcript)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				if got := sleepyProto(t, tc.g, false, opts); got.transcript != twin.transcript {
					t.Fatalf("GOMAXPROCS=%d: the twin's runs differ:\n%s\n---\n%s", procs, twin.transcript, got.transcript)
				}
				got := sleepyProto(t, tc.g, true, opts)
				if got.transcript != twin.transcript {
					t.Fatalf("GOMAXPROCS=%d: sleeping and every-round schedules differ:\n--- every round ---\n%s\n--- sleeping ---\n%s",
						procs, twin.transcript, got.transcript)
				}
				if tc.plan != nil {
					continue
				}
				sleeperCalls, twinCalls, skipped := int32(0), int32(0), 0
				for r := 1; r < len(got.calls); r++ {
					sleeperCalls += got.calls[r]
					twinCalls += twin.calls[r]
					if got.calls[r] == 0 && twin.calls[r] > 0 {
						skipped++
					}
				}
				if sleeperCalls >= twinCalls || skipped == 0 {
					t.Fatalf("GOMAXPROCS=%d: the sleeping form made %d calls to the twin's %d and skipped %d rounds; the test no longer exercises sleep",
						procs, sleeperCalls, twinCalls, skipped)
				}
			}
		})
	}
}

// TestSleepUntilMailWithNothingInFlightAborts sends nothing and lets every
// node sleep until mail: the engine skips straight to the round bound and
// must abort with exactly the Stats and probes of its every-round twin.
func TestSleepUntilMailWithNothingInFlightAborts(t *testing.T) {
	g := gen.Grid(7, 9).G
	run := func(sleep bool) (string, error) {
		var probes strings.Builder
		step := congest.RoundFunc(func(nd *congest.Node, _ []congest.Message) bool {
			if sleep {
				nd.SleepUntil(math.MaxInt)
			}
			return true
		})
		stats, err := congest.RunSync(g, func(*congest.Node) congest.RoundFunc { return step }, congest.Options{
			MaxRounds: 300,
			OnRound: func(pr congest.RoundProbe) {
				fmt.Fprintf(&probes, "%d/%d/%d/%d ", pr.Round, pr.Messages, pr.Bits, pr.Active)
			},
		})
		return fmt.Sprintf("%+v %v %s", stats, err, probes.String()), err
	}
	twin, twinErr := run(false)
	got, err := run(true)
	if !errors.Is(twinErr, congest.ErrAborted) || !errors.Is(err, congest.ErrAborted) {
		t.Fatalf("want ErrAborted from both forms, got %v (every round) and %v (sleeping)", twinErr, err)
	}
	if got != twin {
		t.Fatalf("the sleeping run differs from its every-round twin:\n%s\n---\n%s", twin, got)
	}
}
