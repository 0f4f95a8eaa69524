package congest_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// randomContrib builds a random contribution set: each vertex holds 0-3
// tokens with tags in [0, numTags) (possibly repeated and unsorted).
func randomContrib(n, numTags int, rng *rand.Rand) [][]congest.Token {
	contrib := make([][]congest.Token, n)
	for v := 0; v < n; v++ {
		for j := rng.Intn(4); j > 0; j-- {
			contrib[v] = append(contrib[v], congest.Token{
				Tag:   int32(rng.Intn(numTags)),
				Value: uint64(rng.Intn(1000)),
			})
		}
	}
	return contrib
}

// foldReference computes the per-tag sequential fold.
func foldReference(numTags int, contrib [][]congest.Token, comb congest.Combiner) ([]uint64, []bool) {
	want := make([]uint64, numTags)
	present := make([]bool, numTags)
	for i := range want {
		want[i] = comb.Identity
	}
	for _, toks := range contrib {
		for _, tok := range toks {
			want[tok.Tag] = comb.Fold(want[tok.Tag], tok.Value)
			present[tok.Tag] = true
		}
	}
	return want, present
}

// TestPipecastMatchesSequentialFold: random graphs, random contributions,
// all four standard combiners — the root's values must equal the
// sequential fold and every present flag must be correct.
func TestPipecastMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	combs := []congest.Combiner{congest.CombineSum, congest.CombineMax, congest.CombineMin, congest.CombineCount}
	for trial := 0; trial < 8; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, rng.Intn(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		numTags := 1 + rng.Intn(12)
		contrib := randomContrib(g.N(), numTags, rng)
		comb := combs[trial%len(combs)]
		res, err := congest.Pipecast(tr, numTags, contrib, comb)
		if err != nil {
			t.Fatal(err)
		}
		want, present := foldReference(numTags, contrib, comb)
		for tg := 0; tg < numTags; tg++ {
			if res.Values[tg] != want[tg] {
				t.Fatalf("trial %d (%s) tag %d: %d want %d", trial, comb.Name, tg, res.Values[tg], want[tg])
			}
			if res.Present[tg] != present[tg] {
				t.Fatalf("trial %d tag %d: present %v want %v", trial, tg, res.Present[tg], present[tg])
			}
		}
	}
}

// TestPipecastPathBound pins the acceptance criterion: on a path, the
// pipelined convergecast of k tokens completes in at most height + k + 1
// measured rounds — the O(height + k) pipelining bound, not k·O(height).
func TestPipecastPathBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ n, k int }{{64, 16}, {64, 1}, {32, 32}, {100, 8}} {
		g := gen.Path(tc.n)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Adversarial placement: all k tags at the far leaf, so every token
		// must travel the full height and pipelining is the only way to
		// avoid k·height rounds.
		contrib := make([][]congest.Token, tc.n)
		for tg := 0; tg < tc.k; tg++ {
			contrib[tc.n-1] = append(contrib[tc.n-1], congest.Token{Tag: int32(tg), Value: uint64(rng.Intn(100))})
		}
		res, err := congest.Pipecast(tr, tc.k, contrib, congest.CombineSum)
		if err != nil {
			t.Fatal(err)
		}
		if bound := tr.Height() + tc.k + 1; res.EffectiveRounds > bound {
			t.Fatalf("n=%d k=%d: %d effective rounds exceed height+k+1 = %d", tc.n, tc.k, res.EffectiveRounds, bound)
		}
		if res.EffectiveRounds < tr.Height() {
			t.Fatalf("n=%d k=%d: %d effective rounds below height %d — tokens cannot teleport", tc.n, tc.k, res.EffectiveRounds, tr.Height())
		}
	}
}

// TestPipecastGeneralTreeBound: the height + k + 1 bound holds on
// arbitrary trees too, with contributions scattered everywhere.
func TestPipecastGeneralTreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(30+rng.Intn(50), 120, rng)
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		numTags := 1 + rng.Intn(20)
		contrib := randomContrib(g.N(), numTags, rng)
		res, err := congest.Pipecast(tr, numTags, contrib, congest.CombineMin)
		if err != nil {
			t.Fatal(err)
		}
		if bound := tr.Height() + numTags + 1; res.EffectiveRounds > bound {
			t.Fatalf("trial %d: %d effective rounds exceed height+k+1 = %d", trial, res.EffectiveRounds, bound)
		}
	}
}

// TestPipecastOneTokenPerEdgePerRound: the protocol's bandwidth discipline
// — at most one token crosses any edge in any round (MaxEdgeLoad counts
// both directions, and tokens only flow up).
func TestPipecastOneTokenPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := gen.ErdosRenyiConnected(40, 90, rng)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	contrib := randomContrib(g.N(), 10, rng)
	res, err := congest.Pipecast(tr, 10, contrib, congest.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	// Total messages = sum over non-root vertices of distinct subtree tags;
	// each of those tokens crosses one tree edge once.
	if res.Stats.MaxEdgeLoad > res.Stats.Rounds {
		t.Fatalf("edge load %d exceeds rounds %d: some edge carried two tokens in a round", res.Stats.MaxEdgeLoad, res.Stats.Rounds)
	}
}

// TestPipecastErrors: malformed inputs are explicit errors.
func TestPipecastErrors(t *testing.T) {
	g := gen.Path(4)
	tr, _ := graph.BFSTree(g, 0)
	if _, err := congest.Pipecast(tr, 2, make([][]congest.Token, 3), congest.CombineSum); err == nil {
		t.Fatal("accepted short contribution list")
	}
	bad := make([][]congest.Token, 4)
	bad[1] = []congest.Token{{Tag: 5, Value: 1}}
	if _, err := congest.Pipecast(tr, 2, bad, congest.CombineSum); err == nil {
		t.Fatal("accepted out-of-range tag")
	}
	neg := make([][]congest.Token, 4)
	neg[0] = []congest.Token{{Tag: -1, Value: 1}}
	if _, err := congest.Pipecast(tr, 2, neg, congest.CombineSum); err == nil {
		t.Fatal("accepted negative tag")
	}
}

// TestPipecastEmptyTagSpace: zero tags is a legal degenerate run.
func TestPipecastEmptyTagSpace(t *testing.T) {
	g := gen.Path(5)
	tr, _ := graph.BFSTree(g, 0)
	res, err := congest.Pipecast(tr, 0, make([][]congest.Token, 5), congest.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 || res.Stats.Messages != 0 {
		t.Fatalf("degenerate run produced %d values, %d messages", len(res.Values), res.Stats.Messages)
	}
}

// TestPipeBroadcastDelivers: every vertex receives the full stream within
// the height + k + 1 bound.
func TestPipeBroadcastDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 6; trial++ {
		g := gen.ErdosRenyiConnected(20+rng.Intn(40), 100, rng)
		tr, err := graph.BFSTree(g, rng.Intn(g.N()))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(16)
		tokens := make([]congest.Token, k)
		for i := range tokens {
			tokens[i] = congest.Token{Tag: int32(i), Value: uint64(rng.Intn(1000))}
		}
		res, err := congest.PipeBroadcast(tr, tokens)
		if err != nil {
			t.Fatal(err)
		}
		if bound := tr.Height() + k + 1; res.EffectiveRounds > bound {
			t.Fatalf("trial %d: %d effective rounds exceed height+k+1 = %d", trial, res.EffectiveRounds, bound)
		}
	}
}

// TestPipeBroadcastRejectsUnsorted: the stream contract (strictly
// ascending tags) is validated up front.
func TestPipeBroadcastRejectsUnsorted(t *testing.T) {
	g := gen.Path(4)
	tr, _ := graph.BFSTree(g, 0)
	if _, err := congest.PipeBroadcast(tr, []congest.Token{{Tag: 2}, {Tag: 1}}); err == nil {
		t.Fatal("accepted descending tags")
	}
	if _, err := congest.PipeBroadcast(tr, []congest.Token{{Tag: 1}, {Tag: 1}}); err == nil {
		t.Fatal("accepted duplicate tags")
	}
}

// TestPipecastIdenticalAcrossGOMAXPROCS: the pipelined protocol's full
// observable result — values, presence, stats, effective rounds — is
// byte-identical across scheduler parallelism (run under -race in CI, this
// also checks the slab state against concurrent shard writes).
func TestPipecastIdenticalAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := gen.Wheel(65).G
	tr, err := graph.BFSTree(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	const numTags = 9
	contrib := randomContrib(g.N(), numTags, rng)
	run := func() string {
		res, err := congest.Pipecast(tr, numTags, contrib, congest.CombineMin)
		if err != nil {
			t.Fatal(err)
		}
		tokens := make([]congest.Token, 0, numTags)
		for tg := 0; tg < numTags; tg++ {
			if res.Present[tg] {
				tokens = append(tokens, congest.Token{Tag: int32(tg), Value: res.Values[tg]})
			}
		}
		bres, err := congest.PipeBroadcast(tr, tokens)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %v %d %+v | %d %+v",
			res.Values, res.Present, res.EffectiveRounds, res.Stats, bres.EffectiveRounds, bres.Stats)
	}
	prev := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(8)
	eight := run()
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("pipecast results differ:\nGOMAXPROCS=1: %s\nGOMAXPROCS=8: %s", one, eight)
	}
}

// decodeTokens turns fuzz bytes into a per-vertex token layout on a fixed
// n-vertex tree: triples of (vertex, tag, value) bytes, tags in [0, 8) so
// tag collisions — the merging case — are common.
func decodeTokens(data []byte, n int) [][]congest.Token {
	contrib := make([][]congest.Token, n)
	for i := 0; i+2 < len(data); i += 3 {
		v := int(data[i]) % n
		contrib[v] = append(contrib[v], congest.Token{
			Tag:   int32(data[i+1] % 8),
			Value: uint64(data[i+2]),
		})
	}
	return contrib
}

// FuzzPipecastMerge fuzzes the tag/combiner merging of the pipelined
// convergecast: arbitrary (unsorted, duplicate-heavy) per-vertex token
// lists must fold to exactly the sequential per-tag result under every
// standard combiner, must never be mutated, and the result arrays must
// not alias the input (the mergeSorted fuzzer's invariants, lifted to the
// protocol layer).
func FuzzPipecastMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{1, 3, 7, 1, 3, 9, 2, 0, 0})
	f.Add([]byte{5, 7, 255, 5, 7, 255, 5, 7, 1})
	g := gen.Grid(3, 4).G
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		f.Fatal(err)
	}
	combs := []congest.Combiner{congest.CombineSum, congest.CombineMax, congest.CombineMin, congest.CombineCount}
	f.Fuzz(func(t *testing.T, data []byte) {
		contrib := decodeTokens(data, g.N())
		orig := make([][]congest.Token, len(contrib))
		for v, toks := range contrib {
			orig[v] = append([]congest.Token(nil), toks...)
		}
		for _, comb := range combs {
			res, err := congest.Pipecast(tr, 8, contrib, comb)
			if err != nil {
				t.Fatalf("%s: %v", comb.Name, err)
			}
			want, present := foldReference(8, contrib, comb)
			for tg := 0; tg < 8; tg++ {
				if res.Values[tg] != want[tg] {
					t.Fatalf("%s tag %d: %d want %d", comb.Name, tg, res.Values[tg], want[tg])
				}
				if res.Present[tg] != present[tg] {
					t.Fatalf("%s tag %d: present %v want %v", comb.Name, tg, res.Present[tg], present[tg])
				}
				if !present[tg] && res.Values[tg] != comb.Identity {
					t.Fatalf("%s tag %d: absent tag not at identity", comb.Name, tg)
				}
			}
			// Input immutability: the protocol sorts and folds internally.
			for v, toks := range contrib {
				if len(toks) != len(orig[v]) {
					t.Fatalf("vertex %d token list length mutated", v)
				}
				for i := range toks {
					if toks[i] != orig[v][i] {
						t.Fatalf("vertex %d token %d mutated: %+v vs %+v", v, i, toks[i], orig[v][i])
					}
				}
			}
		}
	})
}

// TestCombinerIdentities pins the neutral elements the pipelined layer's
// accumulators rely on (Fold(Identity, x) == x).
func TestCombinerIdentities(t *testing.T) {
	for _, comb := range []congest.Combiner{congest.CombineSum, congest.CombineMax, congest.CombineMin, congest.CombineCount} {
		for _, x := range []uint64{0, 1, 42, math.MaxUint64 - 1, math.MaxUint64} {
			if got := comb.Fold(comb.Identity, x); got != x {
				t.Fatalf("%s: Fold(identity, %d) = %d", comb.Name, x, got)
			}
			if got := comb.Fold(x, comb.Identity); got != x {
				t.Fatalf("%s: Fold(%d, identity) = %d", comb.Name, x, got)
			}
		}
	}
}

// BenchmarkPipecast times the cap search's per-guess block-count
// convergecasts, now the largest per-guess cost of a simulated search, on
// two search stages cut into about √n Borůvka fragments over the canonical
// BFS tree from vertex 0: chain-simulate's 20×31 wheel chain at seed 7
// (130 parts) and the 100×100 grid at seed 2018 that the 10⁴-node scale
// pipeline searches. One op streams the BlockTops tokens of every doubling
// guess, built outside the timer from the cap views of one cap-P
// construction; it reports ns per token, tokens and rounds per op.
func BenchmarkPipecast(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"chain", gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.WheelChainCSR(20, 31), xrand.New(7))).Graph()},
		{"grid", gen.DistinctWeightsCSR(gen.UniformWeightsCSR(gen.GridCSR(100, 100), xrand.New(2018))).Graph()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.g
			parent, parentEdge, err := congest.CanonicalBFSParents(g, 0)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := graph.TreeFromParents(g, 0, parent, parentEdge)
			if err != nil {
				b.Fatal(err)
			}
			p, err := partition.BoruvkaFragments(g, decomposePhases(b, g))
			if err != nil {
				b.Fatal(err)
			}
			np := p.NumParts()
			var caps []int
			for c := 1; ; c *= 2 {
				caps = append(caps, min(c, np))
				if c >= np {
					break
				}
			}
			views, err := shortcut.ConstructPrio(g, tr, p, np, shortcut.TreeBlockPriorities(tr, p)).CapViews(caps)
			if err != nil {
				b.Fatal(err)
			}
			streams := make([][][]congest.Token, len(views))
			tokens := 0
			for k, s := range views {
				streams[k] = congest.BlockCountTokens(s)
				for _, ts := range streams[k] {
					tokens += len(ts)
				}
			}
			b.ReportAllocs()
			rounds := 0
			for b.Loop() {
				for _, contrib := range streams {
					res, err := congest.Pipecast(tr, np, contrib, congest.CombineCount)
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.Stats.Rounds
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens*b.N), "ns/token")
			b.ReportMetric(float64(tokens), "tokens/op")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
			b.ReportMetric(float64(np), "parts")
		})
	}
}
