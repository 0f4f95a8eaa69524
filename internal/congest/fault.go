package congest

import (
	"fmt"
	"math"
	"sort"
)

// FaultPlan is a seeded, byte-deterministic adversary injected into a run
// via Options.Faults. It can drop individual messages (an independent
// Bernoulli coin per edge direction per round, derived from a hash so the
// outcome is a pure function of the plan and the round — never of
// scheduling), take links down for whole round intervals, and crash nodes
// for round intervals (the node computes nothing, sends nothing, and
// receives nothing while down; on restart its protocol state is preserved,
// or wiped and rebuilt from scratch when the crash says so).
//
// Rounds in the plan are *global* rounds: Offset plus the run's 1-based
// local round. Retry loops advance Offset between attempts so a retried
// protocol faces the continuation of the adversary's timeline rather than
// a replay of the exact faults that just defeated it (a deterministic
// adversary replayed verbatim would deterministically win again).
//
// All fault events are recorded in Stats (Dropped, DownDrops, CrashDrops,
// CrashedRounds), so the round/message ledger stays honest about what was
// lost.
type FaultPlan struct {
	// Seed drives the Bernoulli message-drop coins.
	Seed uint64
	// DropProb is the per-message drop probability in [0, 1], applied
	// independently to every edge direction every round.
	DropProb float64
	// DropUntil bounds the drop coins' horizon: they apply only to global
	// rounds ≤ DropUntil (0 = no bound). A finite horizon is what turns the
	// retry loops' convergence guarantee from probabilistic to certain for
	// the once-only token streams — a doubled budget eventually grants a
	// clean window past the horizon.
	DropUntil int
	// Offset shifts the run's local rounds into the plan's global timeline:
	// local round r (1-based) is global round Offset + r.
	Offset int
	// LinkDowns lists intervals during which an edge delivers nothing.
	LinkDowns []LinkDown
	// Crashes lists intervals during which a node is down.
	Crashes []Crash
}

// LinkDown takes edge Edge down for global rounds [From, To): every message
// queued across it in those rounds is lost (both directions).
type LinkDown struct {
	Edge int
	From int // first down round (global, 1-based), inclusive
	To   int // first up round again, exclusive
}

// Crash takes node Node down for global rounds [Round, Restart): it skips
// its compute phase, its queued sends are discarded, and messages addressed
// to it are lost. At round Restart the node resumes; with Wipe set its
// protocol state is discarded and rebuilt by calling the run's SyncProtocol
// factory again (the node restarts the protocol from round 1 in an
// otherwise mid-flight network).
type Crash struct {
	Node    int
	Round   int // first crashed round (global, 1-based), inclusive
	Restart int // first live round again, exclusive
	Wipe    bool
}

// Validate checks the plan against a network of n nodes and m edges.
func (fp *FaultPlan) Validate(n, m int) error {
	if math.IsNaN(fp.DropProb) || fp.DropProb < 0 || fp.DropProb > 1 {
		return fmt.Errorf("congest: fault plan drop probability %v outside [0, 1]", fp.DropProb)
	}
	if fp.Offset < 0 {
		return fmt.Errorf("congest: fault plan offset %d is negative", fp.Offset)
	}
	if fp.DropUntil < 0 {
		return fmt.Errorf("congest: fault plan drop horizon %d is negative", fp.DropUntil)
	}
	for i, d := range fp.LinkDowns {
		if d.Edge < 0 || d.Edge >= m {
			return fmt.Errorf("congest: link-down %d targets edge %d outside [0, %d)", i, d.Edge, m)
		}
		if d.From < 1 {
			return fmt.Errorf("congest: link-down %d starts at round %d (rounds are 1-based)", i, d.From)
		}
		if d.To <= d.From {
			return fmt.Errorf("congest: link-down %d has inverted interval [%d, %d)", i, d.From, d.To)
		}
	}
	for i, c := range fp.Crashes {
		if c.Node < 0 || c.Node >= n {
			return fmt.Errorf("congest: crash %d targets node %d outside [0, %d)", i, c.Node, n)
		}
		if c.Round < 1 {
			return fmt.Errorf("congest: crash %d starts at round %d (rounds are 1-based)", i, c.Round)
		}
		if c.Restart <= c.Round {
			return fmt.Errorf("congest: crash %d has inverted interval [%d, %d)", i, c.Round, c.Restart)
		}
	}
	return nil
}

// Clone returns a deep copy (retry loops mutate Offset per attempt).
func (fp *FaultPlan) Clone() *FaultPlan {
	if fp == nil {
		return nil
	}
	out := *fp
	out.LinkDowns = append([]LinkDown(nil), fp.LinkDowns...)
	out.Crashes = append([]Crash(nil), fp.Crashes...)
	return &out
}

// Normalize canonicalizes the plan in place: link-down intervals are sorted
// by (edge, from, to) and overlapping or adjacent intervals on the same edge
// are merged; crash intervals likewise per node. A merged crash wipes if
// one of its intervals that ends at the merged restart did, because a
// restart discards the node's state only when an interval ending at that
// round asks for it (wipesAt). The observable fault schedule — DownAt,
// CrashedAt and which restarts wipe, at every round — is invariant under
// normalization, which the fuzz test checks.
func (fp *FaultPlan) Normalize() {
	if len(fp.LinkDowns) > 1 {
		sort.Slice(fp.LinkDowns, func(a, b int) bool {
			x, y := fp.LinkDowns[a], fp.LinkDowns[b]
			if x.Edge != y.Edge {
				return x.Edge < y.Edge
			}
			if x.From != y.From {
				return x.From < y.From
			}
			return x.To < y.To
		})
		out := fp.LinkDowns[:1]
		for _, d := range fp.LinkDowns[1:] {
			last := &out[len(out)-1]
			if d.Edge == last.Edge && d.From <= last.To {
				if d.To > last.To {
					last.To = d.To
				}
				continue
			}
			out = append(out, d)
		}
		fp.LinkDowns = out
	}
	if len(fp.Crashes) > 1 {
		sort.Slice(fp.Crashes, func(a, b int) bool {
			x, y := fp.Crashes[a], fp.Crashes[b]
			if x.Node != y.Node {
				return x.Node < y.Node
			}
			if x.Round != y.Round {
				return x.Round < y.Round
			}
			return x.Restart < y.Restart
		})
		out := fp.Crashes[:1]
		for _, c := range fp.Crashes[1:] {
			last := &out[len(out)-1]
			if c.Node == last.Node && c.Round <= last.Restart {
				switch {
				case c.Restart > last.Restart:
					last.Restart, last.Wipe = c.Restart, c.Wipe
				case c.Restart == last.Restart:
					last.Wipe = last.Wipe || c.Wipe
				}
				continue
			}
			out = append(out, c)
		}
		fp.Crashes = out
	}
}

// DownAt reports whether edge is down at global round gr.
func (fp *FaultPlan) DownAt(edge, gr int) bool {
	for _, d := range fp.LinkDowns {
		if d.Edge == edge && d.From <= gr && gr < d.To {
			return true
		}
	}
	return false
}

// CrashedAt reports whether node is crashed at global round gr.
func (fp *FaultPlan) CrashedAt(node, gr int) bool {
	for _, c := range fp.Crashes {
		if c.Node == node && c.Round <= gr && gr < c.Restart {
			return true
		}
	}
	return false
}

// wipesAt reports whether node's restart at global round gr discards its
// state: some wiping crash interval ends exactly there. (A wipe interval
// that ends while the node is still held down by another interval does not
// wipe — the state is discarded at the moment the node actually restarts,
// and only if the interval ending then asked for it. Normalize keeps
// exactly those wipes.)
func (fp *FaultPlan) wipesAt(node, gr int) bool {
	for _, c := range fp.Crashes {
		if c.Node == node && c.Wipe && c.Restart == gr {
			return true
		}
	}
	return false
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
//
//congest:pure
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const twoTo64 = 18446744073709551616.0 // 2^64 as a float64

// drops is the deterministic Bernoulli coin: whether the message crossing
// (edge, dir) at global round gr is dropped. A pure function of the plan —
// independent of scheduling, shard layout, and GOMAXPROCS — and the purity
// analyzer proves it stays one.
//
//congest:pure
func (fp *FaultPlan) drops(edge, dir, gr int) bool {
	if fp.DropProb <= 0 {
		return false
	}
	if fp.DropUntil > 0 && gr > fp.DropUntil {
		return false
	}
	threshold := uint64(math.MaxUint64)
	if fp.DropProb < 1 {
		t := fp.DropProb * twoTo64
		if t >= twoTo64 {
			t = twoTo64 - 1
		}
		threshold = uint64(t)
	}
	h := splitmix64(splitmix64(fp.Seed^splitmix64(uint64(edge)<<1|uint64(dir))) ^ uint64(gr))
	return h < threshold
}
