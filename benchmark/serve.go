package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

const (
	serveEps     = 0.125
	serveWorkers = 2   // serving goroutines answering within a window
	zipfS        = 1.5 // source skew
	checkEvery   = 64  // every 64th answer is checked against Dijkstra
	churnEvery   = 4   // under churn, a churn step comes between every 4 windows
	serveSide    = 16  // the serving workloads' grid is serveSide × serveSide
	serveHot     = 128 // the serving workloads' hot set
)

// serveWorkload is a closed loop against a query.Oracle: a single client
// sends a window of queries and sends the next only after every answer of
// the previous one has returned. A unit of the loop sets up a fresh server,
// whose set-up warms the cache with every source the queries can draw, then
// serves unitWindows windows from it. Under churn, a churn step comes
// between every churnEvery windows, so every miss the timed windows see
// follows a cache flush by a churn step.
type serveWorkload struct {
	side        int  // grid side; GridRows makes one part per row
	window      int  // queries per window
	hot         int  // sources are Zipf over a hot set this large
	churn       bool // maintained shortcut, churn steps between windows
	unitWindows int
	// sampleStride keeps the latency of every stride-th query (rotating the
	// offset from window to window) so long hit-only runs stay small.
	sampleStride int
}

// server is one serving construction: the grid, its row parts, the
// (maintained) shortcut and the oracle over it, plus the query and churn
// streams aimed at it.
type server struct {
	net      *network
	maint    *shortcut.Maintained
	o        *query.Oracle
	stream   *queryStream
	churnRNG *rand.Rand
	exact    map[int][]float64 // Dijkstra vectors of the current graph, by source
}

// setup builds one server from its seed: generation, then the analytic
// zero-witness construction (SelfSetup and SearchCap over the row parts,
// the construction experiments.E19Query serves from), the oracle, and the
// warm-up of the hot set.
func (w serveWorkload) setup(seed int64, tr *tracer, parent int) (*server, error) {
	net, err := generate(gridCSR(w.side), seed, tr, parent)
	if err != nil {
		return nil, err
	}
	n := net.g.N()
	s := &server{net: net, exact: map[int][]float64{}, churnRNG: xrand.New(subSeed(seed, 3))}
	id := tr.start("query.construct", parent, true)
	err = s.construct(w)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	pool := xrand.New(subSeed(seed, 1)).Perm(n)[:w.hot]
	id = tr.start("query.warmup", parent, true)
	_, _, _, err = s.o.Warm(pool)
	tr.end(id)
	s.stream = newQueryStream(subSeed(seed, 2), pool, n)
	return s, err
}

func (s *server) construct(w serveWorkload) error {
	g := s.net.g
	setup, err := pipeline.SelfSetup(g, false)
	if err != nil {
		return err
	}
	parts, err := partition.GridRows(g, w.side, w.side)
	if err != nil {
		return err
	}
	search, err := congest.SearchCap(g, setup.Tree, parts, congest.SearchOptions{})
	if err != nil {
		return err
	}
	opts := query.Options{Eps: serveEps, Simulate: true}
	if !w.churn {
		s.o, err = query.New(g, parts, search.S, opts)
		return err
	}
	s.maint, err = shortcut.MaintainPrio(g, setup.Tree, parts, search.Cap, search.Priorities, 0)
	if err != nil {
		return err
	}
	s.o, err = query.FromMaintained(s.maint, opts)
	return err
}

// subSeed derives independent input streams from one seed. A run's
// instance i (a pipeline input, a server) is seeded with subSeed(seed,
// 16+i); its graph weights take that seed itself, and a server derives its
// source pool (1), queries (2) and churn events (3) from it in turn.
func subSeed(seed, stream int64) int64 {
	return int64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)*0x632BE59BD9B4E019)
}

// windowBuf holds one window's queries and what serving them produced.
type windowBuf struct {
	src, dst []int
	ans      []float64
	lat      []int64 // ns from the window's arrival to each answer
	seen     map[int]bool
	missing  []int
	served   bool // false when the window failed; its answers are not checked
	hist     [serveWorkers]histogram
	hitNS    [serveWorkers]int64
}

func newWindowBuf(n int) *windowBuf {
	return &windowBuf{
		src: make([]int, n), dst: make([]int, n), ans: make([]float64, n), lat: make([]int64, n),
		seen: make(map[int]bool, n),
	}
}

// queryStream draws sources Zipf(1.5) over pool (rank order) and
// destinations uniformly.
type queryStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	pool []int
	n    int
}

func newQueryStream(seed int64, pool []int, n int) *queryStream {
	rng := xrand.New(seed)
	return &queryStream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(pool)-1)), pool: pool, n: n}
}

func (q *queryStream) fill(b *windowBuf) {
	for i := range b.src {
		b.src[i] = q.pool[q.zipf.Uint64()]
		b.dst[i] = q.rng.Intn(q.n)
	}
}

// window serves one window from its arrival: the first query of each
// uncached source is the window's miss for it, all misses are computed in
// one batched Oracle.Warm, and serveWorkers goroutines answer every query
// through DistCached. It returns the window's duration and its hits.
// afterChurn marks, in the trace, a window that follows a churn step of its
// unit.
func (s *server) window(b *windowBuf, tr *tracer, afterChurn bool) (ns int64, hits int, err error) {
	id := tr.start("query.window", 0, false)
	defer tr.end(id)
	tr.set(id, "after_churn", b2f(afterChurn))
	start := time.Now()
	clear(b.seen)
	b.missing = b.missing[:0]
	for _, src := range b.src {
		if !b.seen[src] {
			b.seen[src] = true
			if !s.o.Cached(src) {
				b.missing = append(b.missing, src)
				continue
			}
		}
		hits++
	}
	if len(b.missing) > 0 {
		wid := tr.start("query.warm", id, true)
		_, computed, cost, err := s.o.Warm(b.missing)
		tr.set(wid, "sources", float64(computed))
		tr.set(wid, "rounds_sim", float64(cost.Simulated))
		tr.set(wid, "rounds_chg", float64(cost.Charged))
		tr.end(wid)
		if err != nil {
			return 0, 0, err
		}
	}
	traced := tr != nil
	var wg sync.WaitGroup
	chunk := (len(b.src) + serveWorkers - 1) / serveWorkers
	for k := 0; k < serveWorkers; k++ {
		lo, hi := k*chunk, min((k+1)*chunk, len(b.src))
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.serve(s.o, k, lo, hi, start, traced)
		}()
	}
	wg.Wait()
	ns = time.Since(start).Nanoseconds()
	if traced {
		h := &histogram{}
		var hitNS int64
		for k := range b.hist {
			h.merge(&b.hist[k])
			hitNS += b.hitNS[k]
		}
		tr.foldHist(id, h)
		tr.set(id, "queries", float64(len(b.src)))
		tr.set(id, "hits", float64(hits))
		tr.set(id, "hit_calls", float64(h.n))
		tr.set(id, "hit_ns", float64(hitNS))
	}
	return ns, hits, nil
}

// serve answers queries [lo, hi) of the window on worker k. A query whose
// source is not cached after the window's warm-up is answered NaN, which
// the check counts as a failure. Traced, each DistCached call is timed into
// the worker's histogram.
func (b *windowBuf) serve(o *query.Oracle, k, lo, hi int, start time.Time, traced bool) {
	h := &b.hist[k]
	*h = histogram{}
	var hitNS int64
	for i := lo; i < hi; i++ {
		var d float64
		var ok bool
		if traced {
			t0 := time.Now()
			d, ok = o.DistCached(b.src[i], b.dst[i])
			dt := time.Since(t0).Nanoseconds()
			h.record(dt)
			hitNS += dt
		} else {
			d, ok = o.DistCached(b.src[i], b.dst[i])
		}
		if !ok {
			d = math.NaN()
		}
		b.ans[i] = d
		b.lat[i] = time.Since(start).Nanoseconds()
	}
	b.hitNS[k] = hitNS
}

// check folds a window's answers into the checksum and holds every
// checkEvery-th answer (by global query index q0+i) to the (1+ε) stretch
// guarantee against Dijkstra on the current graph.
func (s *server) check(b *windowBuf, q0 int, rep *report) {
	for i, d := range b.ans {
		q := q0 + i
		rep.checksum ^= mixAnswer(uint64(q), math.Float64bits(d))
		if math.IsNaN(d) {
			rep.fail("query %d (%d→%d) missed the cache after its window's warm-up", q, b.src[i], b.dst[i])
			continue
		}
		if q%checkEvery != 0 {
			continue
		}
		exact, err := s.exactFrom(b.src[i])
		if err != nil {
			rep.fail("query %d: %v", q, err)
			continue
		}
		want := exact[b.dst[i]]
		if d < want*(1-1e-9) || d > want*(1+serveEps)*(1+1e-9) {
			rep.fail("query %d: dist(%d,%d) = %v outside [%v, %v]", q, b.src[i], b.dst[i], d, want, want*(1+serveEps))
		}
	}
}

func (s *server) exactFrom(src int) ([]float64, error) {
	if d, ok := s.exact[src]; ok {
		return d, nil
	}
	r, err := graph.Dijkstra(s.net.g, src)
	if err != nil {
		return nil, err
	}
	s.exact[src] = r.Dist
	return r.Dist, nil
}

// mixAnswer hashes one answered query into the XOR checksum, the
// determinism witness: order-independent, but sensitive to each query's
// index and answer bits (the finalizer query.Replay uses).
func mixAnswer(idx, bits uint64) uint64 {
	x := idx*0x9E3779B97F4A7C15 ^ bits
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// churnStep applies one step of E18's event mix (1/4 weight updates, 1/4
// inserts, 1/2 deletes) through Maintained.Repair, reseating the shortcut
// when a repair recommends a rebuild, as experiments' churnRow does. A step
// is Poisson(1.5) events conditioned on at least one (zeros are redrawn): a
// step without events would leave the cache warm, and how many of a unit's
// steps flush it would then be the largest source of variance in a run's
// work. It returns the time spent in Repair and Reseat. Repair must refuse,
// before mutating anything, exactly the tree-edge deletes that would
// disconnect the graph; those are counted as refused. Any other error, and a
// refusal that does not match the cut check, is a failure.
func (s *server) churnStep(tr *tracer, rep *report) (ns int64) {
	g, m, rng := s.net.g, s.maint, s.churnRNG
	k := poisson(rng, 1.5)
	for k == 0 {
		k = poisson(rng, 1.5)
	}
	for ; k > 0; k-- {
		var ev shortcut.Event
		switch draw := rng.Intn(4); {
		case draw == 0:
			id := rng.Intn(g.M())
			if g.EdgeRemoved(id) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.WeightUpdate, Edge: id, W: 1 + rng.Float64()}
		case draw == 1:
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u == v || g.HasEdge(u, v) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.EdgeInsert, U: u, V: v, W: 1 + rng.Float64()}
		default:
			id := rng.Intn(g.M())
			if g.EdgeRemoved(id) {
				continue
			}
			ev = shortcut.Event{Kind: shortcut.EdgeDelete, Edge: id}
		}
		rep.attempted++
		refuse := ev.Kind == shortcut.EdgeDelete && m.T.IsTreeEdge(ev.Edge) && disconnects(g, m.T, ev.Edge)
		id := tr.start("shortcut.repair", 0, true)
		var inv0 int64
		if tr != nil {
			inv0 = s.o.Stats().Invalidations
		}
		start := time.Now()
		rr, err := m.Repair(ev)
		if err == nil && rr.RebuildRecommended {
			err = m.Reseat(m.Cap, shortcut.TreeBlockPriorities(m.T, m.P))
			tr.set(id, "rebuilds", 1)
		}
		ns += time.Since(start).Nanoseconds()
		switch {
		case refuse && err != nil && rr == nil:
			rep.refused++
			tr.set(id, "refused", 1)
		case refuse:
			clear(s.exact)
			rep.fail("churn: deleting edge %d disconnects the graph, yet Repair returned %v", ev.Edge, err)
		case err != nil:
			clear(s.exact)
			rep.fail("churn %v: %v", ev.Kind, err)
		default:
			clear(s.exact)
			tr.set(id, "patched", b2f(rr.TreePatched))
			tr.set(id, "dirty_vertices", float64(rr.DirtyVertices))
			tr.set(id, "rounds", float64(rr.RepairRounds))
		}
		if tr != nil {
			tr.set(id, "invalidations", float64(s.o.Stats().Invalidations-inv0))
		}
		tr.end(id)
	}
	return ns
}

// disconnects reports whether deleting tree edge id from g would disconnect
// it: no other live edge crosses the cut between the subtree below id and
// the rest of t.
func disconnects(g *graph.Graph, t *graph.Tree, id int) bool {
	e := g.Edge(id)
	c := e.U
	if t.ParentEdge[e.V] == id {
		c = e.V
	}
	inSub := make([]bool, g.N())
	inSub[c] = true
	for stack := []int{c}; len(stack) > 0; {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range t.Children[v] {
			inSub[ch] = true
			stack = append(stack, ch)
		}
	}
	for f := 0; f < g.M(); f++ {
		if f != id && !g.EdgeRemoved(f) && inSub[g.Edge(f).U] != inSub[g.Edge(f).V] {
			return false
		}
	}
	return true
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// poisson draws from Poisson(lambda) by Knuth's product of uniforms.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, prod := 0, rng.Float64()
	for prod > l {
		k++
		prod *= rng.Float64()
	}
	return k
}

// timedSetup builds one server as a set-up section: after a GC, timed into
// setup_s, under a setup span.
func (w serveWorkload) timedSetup(seed int64, cfg runConfig, rep *report) (*server, error) {
	runtime.GC()
	id := cfg.tr.start("setup", 0, true)
	start := time.Now()
	s, err := w.setup(seed, cfg.tr, id)
	rep.setupNS = append(rep.setupNS, time.Since(start).Nanoseconds())
	cfg.tr.end(id)
	return s, err
}

// verifyEvery is the number of windows held for checking; a batch is
// checked when it is full, before a churn step and at a unit's end.
const verifyEvery = 64

func (w serveWorkload) run(cfg runConfig) (*report, error) {
	rep := &report{}
	bufs := make([]*windowBuf, verifyEvery)
	for i := range bufs {
		bufs[i] = newWindowBuf(w.window)
	}
	var queries, windows, hits, servers int
	var total query.Stats
	loopStart := time.Now()
	// Each unit gets a fresh server seeded by its index, so a unit's work
	// does not depend on the units before it (nor on how many the machine's
	// speed let run), and a run's figures are medians over many networks.
	for u := 0; cfg.more(u, loopStart); u++ {
		rep.probe.sample()
		s, err := w.timedSetup(subSeed(cfg.seed, int64(16+u)), cfg, rep)
		if err != nil {
			return nil, err
		}
		st0 := s.o.Stats()
		utr := cfg.unitTracer(u)
		var unitNS int64
		var alloc uint64
		served, pending := 0, 0
		runtime.GC()
		a0 := cfg.allocMark()
		// verify checks the pending windows against the graph they were
		// computed on, outside the timed sections and their allocation marks.
		verify := func() {
			alloc += cfg.allocMark() - a0
			vid := cfg.tr.start("graph.verify", 0, false)
			for _, b := range bufs[:pending] {
				if b.served {
					s.check(b, queries, rep)
				}
				queries += len(b.src)
			}
			pending = 0
			cfg.tr.end(vid)
			a0 = cfg.allocMark()
		}
		for i := 0; i < w.unitWindows; i++ {
			if w.churn && i > 0 && i%churnEvery == 0 {
				verify()
				unitNS += s.churnStep(utr, rep)
			}
			b := bufs[pending]
			pending++
			s.stream.fill(b)
			ns, h, err := s.window(b, utr, w.churn && i >= churnEvery)
			rep.attempted += len(b.src)
			b.served = err == nil
			windows++
			if err != nil {
				rep.failOps(len(b.src), "window %d: %v", windows, err)
			} else {
				unitNS += ns
				served += len(b.src)
				hits += h
				for j := windows % w.sampleStride; utr == nil && j < len(b.lat); j += w.sampleStride {
					rep.latencyNS = append(rep.latencyNS, b.lat[j])
				}
			}
			if pending == len(bufs) {
				verify()
			}
		}
		verify()
		st := s.o.Stats()
		servers++
		total.Invalidations += st.Invalidations - st0.Invalidations
		total.Misses += st.Misses - st0.Misses
		total.ComputeRounds = total.ComputeRounds.Plus(pipeline.Rounds{
			Simulated: st.ComputeRounds.Simulated - st0.ComputeRounds.Simulated,
			Charged:   st.ComputeRounds.Charged - st0.ComputeRounds.Charged,
		})
		rep.book(utr != nil, unitNS, served, alloc)
	}
	rep.summary = fmt.Sprintf("servers=%d n=%d queries=%d windows=%d hit_rate=%.4f invalidations=%d computed=%d rounds=%d refused=%d checksum=%016x",
		servers, w.side*w.side, queries, windows, float64(hits)/float64(max(queries, 1)), total.Invalidations,
		total.Misses, total.ComputeRounds.Total(), rep.refused, rep.checksum)
	return rep, nil
}
