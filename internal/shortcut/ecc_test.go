package shortcut_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// dfsTree returns a depth-first spanning tree of the connected graph g from
// root, taking each vertex's arcs in a random order. Its depths are far
// larger than a BFS tree's, which stresses the depth term of the probe's
// bounds.
func dfsTree(t *testing.T, g *graph.Graph, root int, rng *rand.Rand) *graph.Tree {
	t.Helper()
	parent := make([]int, g.N())
	parentEdge := make([]int, g.N())
	for v := range parent {
		parent[v], parentEdge[v] = -2, -1
	}
	type arc struct{ from, to, id int }
	stack := []arc{{-1, root, -1}}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if parent[a.to] != -2 {
			continue
		}
		parent[a.to], parentEdge[a.to] = a.from, a.id
		adj := g.Adj(a.to)
		for _, k := range rng.Perm(len(adj)) {
			if parent[adj[k].To] == -2 {
				stack = append(stack, arc{a.to, adj[k].To, adj[k].ID})
			}
		}
	}
	tr, err := graph.TreeFromParents(g, root, parent, parentEdge)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// eccInstance draws a small weighted graph: a grid with one edge removed,
// a wheel chain, a k-tree or an Erdős–Rényi graph.
func eccInstance(rng *rand.Rand) (string, *graph.Graph) {
	switch rng.Intn(4) {
	case 0:
		rows, cols := 2+rng.Intn(7), 2+rng.Intn(7)
		g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(rows, cols).G, rng))
		id := rng.Intn(g.M())
		g.RemoveEdge(id)
		return fmt.Sprintf("grid %dx%d without edge %d", rows, cols, id), g
	case 1:
		bags, rim := 1+rng.Intn(4), 3+rng.Intn(7)
		return fmt.Sprintf("wheel chain %dx%d", bags, rim),
			gen.DistinctWeights(gen.UniformWeights(gen.WheelChainCSR(bags, rim).Graph(), rng))
	case 2:
		n, k := 8+rng.Intn(40), 1+rng.Intn(4)
		return fmt.Sprintf("%d-tree n=%d", k, n), gen.DistinctWeights(gen.UniformWeights(gen.KTree(n, k, rng).G, rng))
	default:
		n := 10 + rng.Intn(40)
		m := n - 1 + rng.Intn(2*n)
		return fmt.Sprintf("erdos-renyi n=%d m=%d", n, m),
			gen.DistinctWeights(gen.UniformWeights(gen.ErdosRenyiConnected(n, m, rng), rng))
	}
}

// wantAugmentedEcc is what MaxAugmentedEcc must return for s, from the
// reference BFS of every part: the maximum eccentricity, or the error
// naming the lowest part whose augmented subgraph is disconnected.
func wantAugmentedEcc(s *shortcut.Shortcut) (int, string) {
	want := 0
	for i := range s.P.Sets {
		ecc := referenceAugmentedEcc(s, i)
		if ecc < 0 {
			return 0, fmt.Sprintf("shortcut: augmented subgraph of part %d is disconnected: %v", i, graph.ErrDisconnected)
		}
		want = max(want, ecc)
	}
	return want, ""
}

// TestMaxAugmentedEccBoundedMatchesFull: the bounded probe, which skips the
// parts whose bound cannot raise the maximum and reads a lazy shortcut's
// flooding state, returns exactly what a BFS over every part returns. On
// random graphs, BFS and DFS trees, Voronoi, Borůvka and merged part
// families (pairs of Voronoi cells, often disconnected), nil, block-count
// and random rankings and every cap from 1 to the part count, it probes the
// lazy ConstructPrio shortcut, a FromFloodState one over its state whose
// lists are filled, and an edge-built New copy of those lists, through a
// shared EccProbe, through MaxAugmentedEcc and without pruning. Every
// result must equal the reference's, value or error, and the lazy
// shortcut must stay unfilled.
func TestMaxAugmentedEccBoundedMatchesFull(t *testing.T) {
	rng := xrand.New(1801)
	trials := 60
	if testing.Short() {
		trials = 15
	}
	probes, probed, walked, failures := 0, 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		name, g := eccInstance(rng)
		root := rng.Intn(g.N())
		bfs, err := graph.BFSTree(g, root)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		voronoi, err := partition.Voronoi(g, 1+rng.Intn(min(g.N(), 14)), rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		boruvka, err := partition.BoruvkaFragments(g, 1+rng.Intn(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var pairs [][]int
		for k := 0; k < len(voronoi.Sets); k += 2 {
			set := append([]int(nil), voronoi.Sets[k]...)
			if k+1 < len(voronoi.Sets) {
				set = append(set, voronoi.Sets[k+1]...)
			}
			pairs = append(pairs, set)
		}
		merged, err := partition.NewUnchecked(g, pairs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tc := range []struct {
			tree string
			tr   *graph.Tree
		}{{"bfs", bfs}, {"dfs", dfsTree(t, g, root, rng)}} {
			for _, fam := range []struct {
				name string
				p    *partition.Parts
			}{{"voronoi", voronoi}, {"boruvka", boruvka}, {"merged", merged}} {
				p, tr := fam.p, tc.tr
				np := p.NumParts()
				perm := make([]int32, np)
				for i, r := range rng.Perm(np) {
					perm[i] = int32(r)
				}
				probe := shortcut.NewEccProbe(g, tr, p)
				for _, pr := range []struct {
					name string
					prio []int32
				}{{"identity", identityRanking(np)}, {"blocks", shortcut.TreeBlockPriorities(tr, p)}, {"random", perm}} {
					for c := 1; c <= np; c++ {
						at := fmt.Sprintf("%s, %s tree, %s parts=%d, %s ranking, cap %d", name, tc.tree, fam.name, np, pr.name, c)
						lazy := shortcut.ConstructPrio(g, tr, p, c, pr.prio)
						filled, err := shortcut.FromFloodState(g, tr, p, lazy.FloodState(), pr.prio)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						hand, err := shortcut.New(g, tr, p, cloneEdges(filled.Edges()))
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						want, wantErr := wantAugmentedEcc(hand)
						if wantErr != "" {
							failures++
						}
						for _, sc := range []struct {
							name string
							s    *shortcut.Shortcut
						}{{"lazy", lazy}, {"filled", filled}, {"hand-built", hand}} {
							ecc, k, err := shortcut.ProbeParts(probe, sc.s)
							check := func(how string, ecc int, err error) {
								t.Helper()
								switch {
								case wantErr == "" && err != nil:
									t.Fatalf("%s: %s %s: %v, want %d", at, sc.name, how, err, want)
								case wantErr == "" && ecc != want:
									t.Fatalf("%s: %s %s: %d, want %d", at, sc.name, how, ecc, want)
								case wantErr != "" && (err == nil || err.Error() != wantErr || !errors.Is(err, graph.ErrDisconnected)):
									t.Fatalf("%s: %s %s: %d, %v; want the error %q", at, sc.name, how, ecc, err, wantErr)
								}
							}
							check("shared probe", ecc, err)
							ecc, err = probe.MaxAugmentedEcc(sc.s)
							check("EccProbe.MaxAugmentedEcc", ecc, err)
							ecc, err = sc.s.MaxAugmentedEcc()
							check("MaxAugmentedEcc", ecc, err)
							ecc, err = shortcut.MaxAugmentedEccUnpruned(sc.s)
							check("unpruned", ecc, err)
							if sc.name != "hand-built" && err == nil {
								probes++
								probed += k
								walked += np
							}
						}
						if shortcut.Filled(lazy) {
							t.Fatalf("%s: probing the lazy shortcut filled its edge lists", at)
						}
					}
				}
			}
		}
	}
	if probes < 1000 || failures == 0 {
		t.Fatalf("only %d flood-built probes and %d disconnected guesses compared", probes, failures)
	}
	if probed >= walked {
		t.Fatalf("the bounded probe walked all %d parts of %d flood-built probes; the pruning never fired", walked, probes)
	}
	t.Logf("%d flood-built probes walked %d of %d parts (%d disconnected guesses)", probes, probed, walked, failures)
}

// TestMaxAugmentedEccTwoDisconnectedParts: on a NewUnchecked family whose
// parts 0 and 1 are both split, in G and in the flood-built shortcut, every
// probe returns the error the unbounded probe always returned, naming the
// lower part. On the path 0-…-9 rooted at 0, at cap 1, the singleton parts
// {3} and {7} outrank {2, 4} and {6, 8} and take every edge above them: part
// 0 keeps no edge and part 1 only 7-8.
func TestMaxAugmentedEccTwoDisconnectedParts(t *testing.T) {
	g := gen.Path(10)
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.NewUnchecked(g, [][]int{{2, 4}, {6, 8}, {3}, {7}})
	if err != nil {
		t.Fatal(err)
	}
	prio := []int32{2, 3, 0, 1}
	lazy := shortcut.ConstructPrio(g, tr, p, 1, prio)
	filled, err := shortcut.FromFloodState(g, tr, p, lazy.FloodState(), prio)
	if err != nil {
		t.Fatal(err)
	}
	if got := filled.Edges(); len(got[0]) != 0 || len(got[1]) != 1 {
		t.Fatalf("shortcut edges %v; want none for part 0 and one for part 1", got)
	}
	hand, err := shortcut.New(g, tr, p, cloneEdges(filled.Edges()))
	if err != nil {
		t.Fatal(err)
	}
	const want = "shortcut: augmented subgraph of part 0 is disconnected: graph: not connected"
	probe := shortcut.NewEccProbe(g, tr, p)
	for _, s := range []*shortcut.Shortcut{lazy, filled, hand} {
		for _, run := range []func() (int, error){
			s.MaxAugmentedEcc,
			func() (int, error) { return probe.MaxAugmentedEcc(s) },
			func() (int, error) { return shortcut.MaxAugmentedEccUnpruned(s) },
		} {
			if ecc, err := run(); err == nil || err.Error() != want || !errors.Is(err, graph.ErrDisconnected) {
				t.Fatalf("probe returned %d, %v; want %q", ecc, err, want)
			}
		}
	}
}

// TestEccProbeRejectsForeignShortcut: a probe built for one part family
// refuses a shortcut over another instead of reading the wrong bounds.
func TestEccProbeRejectsForeignShortcut(t *testing.T) {
	g, tr, p := gridParts(t, 6, 6)
	other, err := partition.Voronoi(g, 4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	probe := shortcut.NewEccProbe(g, tr, other)
	if ecc, err := probe.MaxAugmentedEcc(shortcut.Construct(g, tr, p, 2)); err == nil {
		t.Fatalf("probe over another part family returned %d, want an error", ecc)
	}
}

// TestSearchCapLeavesGuessesUnfilled: an analytic cap search reads only the
// measurement and the flooding state of each guess, so no guess's shortcut,
// the winner included, fills its edge lists.
func TestSearchCapLeavesGuessesUnfilled(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.Grid(24, 24).G, xrand.New(11)))
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.BoruvkaFragments(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := shortcut.Fills()
	res, err := congest.SearchCap(g, tr, p, congest.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := shortcut.Fills() - before; got != 0 || shortcut.Filled(res.S) {
		t.Fatalf("an analytic search over %d guesses filled %d edge lists (winner filled: %t); want none",
			res.Guesses, got, shortcut.Filled(res.S))
	}
	res.S.Edges()
	if got := shortcut.Fills() - before; got != 1 || !shortcut.Filled(res.S) {
		t.Fatalf("reading the winner's edges counted %d fills; want 1", got)
	}
}

// TestMaxAugmentedEccSkipsTreeChildLists: the probe finds each part's
// downward Hᵢ edges in Hᵢ itself, never in the tree's child lists, so a
// part's BFS costs O(|Pᵢ|·deg + |Hᵢ|) however many tree children the
// vertices it reaches have. On a wheel, whose hub is the tree parent of
// nearly every rim vertex and which every rim part's shortcut reaches, the
// lazy, filled and hand-built shortcut of every doubling cap still return
// the reference maximum while the tree's child lists are emptied.
func TestMaxAugmentedEccSkipsTreeChildLists(t *testing.T) {
	g := gen.DistinctWeights(gen.UniformWeights(gen.WheelCSR(400).Graph(), xrand.New(5)))
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hub := g.N() - 1; len(tr.Children[hub]) < g.N()/2 {
		t.Fatalf("the hub has %d tree children; want most of the rim", len(tr.Children[hub]))
	}
	p, err := partition.BoruvkaFragments(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	np := p.NumParts()
	prio := shortcut.TreeBlockPriorities(tr, p)
	type guess struct {
		name string
		s    *shortcut.Shortcut
		want int
	}
	var guesses []guess
	for c := 1; ; c = min(2*c, np) {
		lazy := shortcut.ConstructPrio(g, tr, p, c, prio)
		filled, err := shortcut.FromFloodState(g, tr, p, lazy.FloodState(), prio)
		if err != nil {
			t.Fatal(err)
		}
		hand, err := shortcut.New(g, tr, p, cloneEdges(filled.Edges()))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := wantAugmentedEcc(hand)
		if wantErr != "" {
			t.Fatalf("cap %d: %s", c, wantErr)
		}
		for _, sc := range []struct {
			name string
			s    *shortcut.Shortcut
		}{{"lazy", lazy}, {"filled", filled}, {"hand-built", hand}} {
			guesses = append(guesses, guess{fmt.Sprintf("cap %d, %s", c, sc.name), sc.s, want})
		}
		if c == np {
			break
		}
	}
	children := tr.Children
	tr.Children = make([][]int, g.N())
	defer func() { tr.Children = children }()
	probe := shortcut.NewEccProbe(g, tr, p)
	for _, gs := range guesses {
		for _, run := range []struct {
			how string
			f   func() (int, error)
		}{
			{"shared probe", func() (int, error) { return probe.MaxAugmentedEcc(gs.s) }},
			{"MaxAugmentedEcc", gs.s.MaxAugmentedEcc},
			{"unpruned", func() (int, error) { return shortcut.MaxAugmentedEccUnpruned(gs.s) }},
		} {
			if ecc, err := run.f(); err != nil || ecc != gs.want {
				t.Fatalf("%s: %s without child lists returned %d, %v; want %d", gs.name, run.how, ecc, err, gs.want)
			}
		}
	}
}

// BenchmarkMaxAugmentedEcc prices the cap search's quality probe on two
// instances, each with its BFS tree from vertex 0 and its Borůvka
// fragments at the last phase with at least √n of them. grid is
// BenchmarkSearchCap/analytic's: the 160×160 grid at seed-2018 weights and
// 512 parts. wheel is a 20,000-vertex wheel, whose hub is the tree parent
// of nearly every rim vertex and is reached by every part's shortcut, so a
// probe whose cost grew with a vertex's tree degree would show there. One
// op is one search's worth of probing: it builds the EccProbe and probes
// the shortcut of every doubling guess, caps 1, 2, 4, … up to the part
// count, all built before the timer starts. lazy probes ConstructPrio's
// shortcuts, which the probe walks pruned and never fills; edges probes
// edge-built New copies of the same lists, which it walks unpruned. Each
// reports ns/guess and the parts probed per op.
func BenchmarkMaxAugmentedEcc(b *testing.B) {
	for _, inst := range []struct {
		name string
		csr  *graph.CSR
	}{{"grid", gen.GridCSR(160, 160)}, {"wheel", gen.WheelCSR(20000)}} {
		g := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(inst.csr, rand.New(rand.NewSource(2018)))).Graph()
		tr, err := graph.BFSTree(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		trace, frag := sqrtFragmentPhase(b, g)
		p := trace[frag].Parts(g)
		np := p.NumParts()
		prio := shortcut.TreeBlockPriorities(tr, p)
		var caps []int
		for c := 1; ; c *= 2 {
			caps = append(caps, min(c, np))
			if c >= np {
				break
			}
		}
		for _, kind := range []string{"lazy", "edges"} {
			guesses := make([]*shortcut.Shortcut, len(caps))
			for k, c := range caps {
				if guesses[k] = shortcut.ConstructPrio(g, tr, p, c, prio); kind == "lazy" {
					continue
				}
				if guesses[k], err = shortcut.New(g, tr, p, guesses[k].Edges()); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(inst.name+"/"+kind, func(b *testing.B) {
				b.ReportAllocs()
				probed := 0
				for b.Loop() {
					probe := shortcut.NewEccProbe(g, tr, p)
					for _, s := range guesses {
						_, k, err := shortcut.ProbeParts(probe, s)
						if err != nil {
							b.Fatal(err)
						}
						probed += k
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(guesses)), "ns/guess")
				b.ReportMetric(float64(probed)/float64(b.N), "parts-probed/op")
				b.ReportMetric(float64(np), "parts")
			})
		}
	}
}
