package congest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// This file implements the pipelined multi-token tree communication layer:
// Pipecast streams k tagged tokens up a rooted spanning tree to the root in
// O(height + k) measured rounds (one token per tree edge per round, per-tag
// combining on the way up), and PipeBroadcast streams k tokens from the
// root down to every vertex in the same bound. Pipelined tree aggregation
// is exactly the primitive the paper's Part-Wise Aggregation theorem
// reduces to; before this layer existed the repo booked three call sites —
// the block-priority bootstrap, the per-guess block-count sums of the cap
// search, and the SSSP self-sufficient Borůvka decomposition — as modeled
// pipelined-convergecast charges instead of running them.
//
// Protocol shape (convergecast). Every vertex owns a sorted list of the
// distinct tags present in its subtree; its emission schedule is exactly
// that list, in ascending tag order, one token per round over its parent
// edge. A tag's value is final at a vertex once every child has streamed
// past the tag (children emit in the same ascending order, so "past" is
// one monotone frontier pointer per child); the vertex then forwards the
// combined value. All protocol state — tag lists, accumulators, per-child
// frontiers — lives in preallocated CSR slabs indexed by node ID and every
// node shares one RoundFunc, so a round allocates nothing. The subtree tag
// lists are environment-provided setup state (the same convention as the
// channel CSR AggregateMin builds); a deployment would replace them with
// one extra DONE token per edge without changing the asymptotics.
//
// Round bound: a vertex at height h emits its i-th token (0-based) no
// later than round h + i + 1, by induction — its children sit at height
// ≤ h-1 and have at most i+1 tokens at or below the tag, so the last
// arrives by round (h-1) + (i+1) + 1 and is folded in time. The root
// therefore holds all k combined values after height + k rounds, and the
// pipelined run beats k sequential convergecasts (k·O(height)) whenever
// k ≥ 2 and the tree is not a star.

// Token is one tagged 64-bit contribution (or broadcast item). Tags are
// dense indices — part IDs, fragment IDs — and values are whatever the
// combiner folds (counts, sums, order-encoded edges).
type Token struct {
	Tag   int32
	Value uint64
}

// Combiner folds two same-tag values. Fold must be commutative and
// associative with Identity as neutral element (Fold(Identity, x) = x):
// the convergecast folds children in arrival order.
type Combiner struct {
	Name     string
	Identity uint64
	Fold     func(a, b uint64) uint64
}

// The standard combiners. CombineCount is CombineSum under the convention
// that every contribution carries value 1 (it counts contributors).
var (
	CombineSum = Combiner{Name: "sum", Identity: 0, Fold: func(a, b uint64) uint64 { return a + b }}
	CombineMax = Combiner{Name: "max", Identity: 0, Fold: func(a, b uint64) uint64 {
		if b > a {
			return b
		}
		return a
	}}
	CombineMin = Combiner{Name: "min", Identity: math.MaxUint64, Fold: func(a, b uint64) uint64 {
		if b < a {
			return b
		}
		return a
	}}
	CombineCount = Combiner{Name: "count", Identity: 0, Fold: func(a, b uint64) uint64 { return a + b }}
)

// PipecastBudget is the framework's round charge for one pipelined
// k-token tree convergecast: every token climbs at most height levels and
// each tree edge serializes at most k tokens — O(height + k), the
// Part-Wise Aggregation pipelining bound. The symmetric broadcast down
// has the same budget, so a full bootstrap (counts up, ranking down)
// charges twice this.
func PipecastBudget(t *graph.Tree, k int) int {
	return t.Height() + k + 2
}

// PipecastResult reports a pipelined convergecast run.
type PipecastResult struct {
	// Values holds, per tag, the combined value at the root (Identity
	// where no contribution carried the tag).
	Values []uint64
	// Present marks tags that received at least one contribution.
	Present []bool
	Stats   Stats
	// EffectiveRounds is the round of the last token delivery — the
	// measured O(height + k) quantity (≤ Height + k + 1, tested).
	EffectiveRounds int
}

// Pipecast streams every vertex's tagged contributions up the tree to the
// root, combining same-tag values with comb, one token per tree edge per
// round. contrib[v] may be unsorted and may repeat tags (repeats fold
// locally first); the slices are never mutated. Tags must lie in
// [0, numTags). The root's per-tag results are validated against the
// sequential fold — a mismatch is an engine bug, reported as an error.
func Pipecast(t *graph.Tree, numTags int, contrib [][]Token, comb Combiner) (*PipecastResult, error) {
	return pipecastOpts(t, numTags, contrib, comb, Options{})
}

// pipecastOpts is Pipecast under explicit engine options — the resilient
// retry layer passes a fault plan and a per-attempt round budget through
// here (opts.MaxRounds of 0 selects the protocol's own default). All slab
// state is built per call, so a retried attempt starts from scratch.
func pipecastOpts(t *graph.Tree, numTags int, contrib [][]Token, comb Combiner, opts Options) (*PipecastResult, error) {
	g := t.G
	n := g.N()
	if len(contrib) != n {
		return nil, fmt.Errorf("congest: pipecast %d contribution lists for %d vertices", len(contrib), n)
	}
	if numTags < 0 {
		return nil, fmt.Errorf("congest: pipecast negative tag space %d", numTags)
	}
	for v, toks := range contrib {
		for _, tok := range toks {
			if tok.Tag < 0 || int(tok.Tag) >= numTags {
				return nil, fmt.Errorf("congest: pipecast vertex %d tag %d outside [0, %d)", v, tok.Tag, numTags)
			}
		}
	}
	// Sequential ground truth for the end-of-run validation.
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

	// Every vertex's sorted distinct subtree tags are its row of one slab,
	// tags[off[v]:off[v+1]], with its accumulators at the same indices in
	// acc. A tag is in v's row iff v lies on the tree path from one of the
	// tag's holders up to the root, so the rows come from walks up the
	// tree, tag by tag, each stopping at the first vertex the tag already
	// reached. One pass counts the rows' lengths; a second, over the tags
	// in descending order, fills each row from its end, so every row comes
	// out ascending. Each (vertex, tag) pair is visited once per pass, and
	// the set-up allocates the same number of slabs whatever n is.
	tagOff := make([]int32, numTags+2) // holders of tag tg: byTag[tagOff[tg]:tagOff[tg+1]]
	for _, toks := range contrib {
		for _, tok := range toks {
			tagOff[tok.Tag+2]++
		}
	}
	for i := 2; i < len(tagOff); i++ {
		tagOff[i] += tagOff[i-1]
	}
	byTag := make([]int32, tagOff[numTags+1])
	for v, toks := range contrib {
		for _, tok := range toks {
			byTag[tagOff[tok.Tag+1]] = int32(v)
			tagOff[tok.Tag+1]++
		}
	}
	mark := make([]int32, n) // tg+1 once the walks of tag tg reached the vertex
	off := make([]int32, n+1)
	walk := func(tg int, visit func(u int)) {
		for _, v := range byTag[tagOff[tg]:tagOff[tg+1]] {
			for u := int(v); u != -1 && mark[u] != int32(tg+1); u = t.Parent[u] {
				mark[u] = int32(tg + 1)
				visit(u)
			}
		}
	}
	for tg := 0; tg < numTags; tg++ {
		walk(tg, func(u int) { off[u]++ })
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1] // off[v] is now where v's row ends
	}
	tags := make([]int32, off[n])
	clear(mark)
	for tg := numTags - 1; tg >= 0; tg-- {
		walk(tg, func(u int) {
			off[u]--
			tags[off[u]] = int32(tg)
		})
	}
	acc := make([]uint64, len(tags))
	for i := range acc {
		acc[i] = comb.Identity
	}
	for v, toks := range contrib {
		row := tags[off[v]:off[v+1]]
		for _, tok := range toks {
			i, _ := slices.BinarySearch(row, tok.Tag)
			acc[int(off[v])+i] = comb.Fold(acc[int(off[v])+i], tok.Value)
		}
	}
	// Per-slot state, one slot per tree child (the tree-port table):
	// frontier[s] is the index in v's row of the child's next-undelivered
	// tag (len(row) once the child's stream is exhausted); delivered[s]
	// counts receipts.
	tp := newTreePorts(g, t)
	frontier := make([]int32, len(tp.child))
	delivered := make([]int32, len(tp.child))
	for v := 0; v < n; v++ {
		row := tags[off[v]:off[v+1]]
		for s := tp.slotOff[v]; s < tp.slotOff[v+1]; s++ {
			// The first frontier: where the child's first tag sits in v's
			// row (every child tag appears there by construction).
			frontier[s] = int32(len(row))
			if c := tp.child[s]; off[c] < off[c+1] {
				i, _ := slices.BinarySearch(row, tags[off[c]])
				frontier[s] = int32(i)
			}
		}
	}
	nextEmit := make([]int32, n)

	root := t.Root
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		myOff, myLen := off[v], off[v+1]-off[v]
		for _, m := range msgs {
			s := tp.slot(v, m.Port)
			if s == -1 {
				//lint:allow hotalloc terminal engine-abort path: the Errorf boxing happens only when the run is already failing
				nd.eng.fail(fmt.Errorf("congest: pipecast token on non-child port %d at node %d", m.Port, v))
				return false
			}
			tg := int32(m.Payload[0])
			idx := frontier[s]
			if idx >= myLen || tags[myOff+idx] != tg {
				//lint:allow hotalloc terminal engine-abort path: the Errorf boxing happens only when the run is already failing
				nd.eng.fail(fmt.Errorf("congest: pipecast node %d got tag %d out of schedule", v, tg))
				return false
			}
			acc[myOff+idx] = comb.Fold(acc[myOff+idx], m.Payload[1])
			delivered[s]++
			c := tp.child[s]
			if delivered[s] == off[c+1]-off[c] {
				frontier[s] = myLen
			} else {
				cn := tags[off[c]+delivered[s]]
				fr := idx + 1
				for tags[myOff+fr] < cn {
					fr++
				}
				frontier[s] = fr
			}
		}
		if v == root {
			for s := tp.slotOff[v]; s < tp.slotOff[v+1]; s++ {
				if frontier[s] < myLen {
					nd.SleepUntil(math.MaxInt) // waiting on a child's token
					return true
				}
			}
			return false
		}
		if nextEmit[v] >= myLen {
			return false // stream exhausted (implies all children done)
		}
		minF := myLen
		for s := tp.slotOff[v]; s < tp.slotOff[v+1]; s++ {
			if frontier[s] < minF {
				minF = frontier[s]
			}
		}
		if nextEmit[v] < minF {
			i := nextEmit[v]
			nd.Send(int(tp.parent[v]), Words{uint64(tags[myOff+i]), acc[myOff+i]})
			nextEmit[v]++
		}
		if nextEmit[v] < myLen && nextEmit[v] >= minF {
			nd.SleepUntil(math.MaxInt) // waiting on a child's token
		}
		return true
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = t.Height() + numTags + 64
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, opts)
	if err != nil {
		return nil, err
	}
	res := &PipecastResult{
		Values:          make([]uint64, numTags),
		Present:         present,
		Stats:           stats,
		EffectiveRounds: stats.LastActiveRound,
	}
	for i := range res.Values {
		res.Values[i] = comb.Identity
	}
	rrow := tags[off[root]:off[root+1]]
	for i, tg := range rrow {
		res.Values[tg] = acc[off[root]+int32(i)]
	}
	for tg := 0; tg < numTags; tg++ {
		if res.Values[tg] != want[tg] {
			return nil, &IncompleteError{Protocol: "Pipecast", Rounds: stats.Rounds, Budget: opts.MaxRounds,
				Detail: fmt.Sprintf("tag %d converged to %d, sequential fold has %d", tg, res.Values[tg], want[tg])}
		}
	}
	return res, nil
}

// BroadcastResult reports a pipelined broadcast run.
type BroadcastResult struct {
	Stats Stats
	// EffectiveRounds is the round of the last token delivery — the
	// measured O(height + k) quantity.
	EffectiveRounds int
}

// PipeBroadcast streams k tokens from the root down the tree, one token
// per tree edge per round: the root emits the stream in order, every
// vertex re-emits it to all children with one round of lag, so the
// deepest vertex holds all k tokens after height + k rounds. Tokens must
// be sorted by strictly ascending tag (the convergecast's output order).
// Per-node pending state is a fixed-size ring buffer in a shared slab —
// receive and forward rates are both one token per round, so the ring
// never holds more than two tokens. Every vertex's received stream is
// validated against the input; an incomplete or reordered delivery is an
// error, never a silent partial result.
func PipeBroadcast(t *graph.Tree, tokens []Token) (*BroadcastResult, error) {
	return pipeBroadcastOpts(t, tokens, Options{})
}

// pipeBroadcastOpts is PipeBroadcast under explicit engine options (see
// pipecastOpts); slab state is rebuilt per call so retries start clean.
func pipeBroadcastOpts(t *graph.Tree, tokens []Token, opts Options) (*BroadcastResult, error) {
	g := t.G
	n := g.N()
	k := len(tokens)
	for i := 1; i < k; i++ {
		if tokens[i].Tag <= tokens[i-1].Tag {
			return nil, fmt.Errorf("congest: broadcast tokens not in ascending tag order at %d", i)
		}
	}
	const ringCap = 4 // receive ≤1/round, forward 1/round: depth ≤ 2
	ringTag := make([]int32, ringCap*n)
	ringVal := make([]uint64, ringCap*n)
	head := make([]int32, n) // index of oldest pending token
	count := make([]int32, n)
	recvd := make([]int32, n) // tokens received so far (root: k)
	sent := make([]int32, n)  // tokens forwarded to children so far
	tp := newTreePorts(g, t)
	root := t.Root
	recvd[root] = int32(k)
	step := func(nd *Node, msgs []Message) bool {
		v := nd.ID
		numChild := tp.slotOff[v+1] - tp.slotOff[v]
		for _, m := range msgs {
			if int32(m.Port) != tp.parent[v] {
				//lint:allow hotalloc terminal engine-abort path: the Errorf boxing happens only when the run is already failing
				nd.eng.fail(fmt.Errorf("congest: broadcast token on non-parent port %d at node %d", m.Port, v))
				return false
			}
			i := recvd[v]
			if int(i) >= k || tokens[i].Tag != int32(m.Payload[0]) || tokens[i].Value != m.Payload[1] {
				//lint:allow hotalloc terminal engine-abort path: the Errorf boxing happens only when the run is already failing
				nd.eng.fail(fmt.Errorf("congest: broadcast node %d received token out of sequence", v))
				return false
			}
			if numChild > 0 { // leaves consume; interior vertices buffer to forward
				if count[v] == ringCap {
					//lint:allow hotalloc terminal engine-abort path: the Errorf boxing happens only when the run is already failing
					nd.eng.fail(fmt.Errorf("congest: broadcast ring overflow at node %d", v))
					return false
				}
				ringTag[ringCap*v+int((head[v]+count[v])%ringCap)] = tokens[i].Tag
				ringVal[ringCap*v+int((head[v]+count[v])%ringCap)] = tokens[i].Value
				count[v]++
			}
			recvd[v]++
		}
		if numChild == 0 {
			if int(recvd[v]) < k { // leaf: done once the stream arrived
				nd.SleepUntil(math.MaxInt) // waiting on the parent's token
				return true
			}
			return false
		}
		if int(sent[v]) == k {
			return false // all forwarded (implies all received)
		}
		var tg int32
		var val uint64
		haveNext := false
		if v == root {
			if int(sent[v]) < k {
				tg, val = tokens[sent[v]].Tag, tokens[sent[v]].Value
				haveNext = true
			}
		} else if count[v] > 0 {
			tg = ringTag[ringCap*v+int(head[v])]
			val = ringVal[ringCap*v+int(head[v])]
			head[v] = (head[v] + 1) % ringCap
			count[v]--
			haveNext = true
		}
		if haveNext {
			for s := tp.slotOff[v]; s < tp.slotOff[v+1]; s++ {
				nd.Send(int(tp.port[s]), Words{uint64(tg), val})
			}
			sent[v]++
		}
		if v != root && count[v] == 0 && int(sent[v]) < k {
			nd.SleepUntil(math.MaxInt) // waiting on the parent's token
		}
		return true
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = t.Height() + k + 64
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, opts)
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		if int(recvd[v]) != k {
			return nil, &IncompleteError{Protocol: "PipeBroadcast", Rounds: stats.Rounds, Budget: opts.MaxRounds,
				Detail: fmt.Sprintf("node %d received %d of %d tokens", v, recvd[v], k)}
		}
	}
	return &BroadcastResult{Stats: stats, EffectiveRounds: stats.LastActiveRound}, nil
}
