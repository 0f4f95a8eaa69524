package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/shortcut"
	"repro/internal/xrand"
)

// network is one generated input: the CSR slabs, the engine-facing graph,
// and the double-sweep diameter estimate every protocol's bound derives from.
type network struct {
	c         *graph.CSR
	g         *graph.Graph
	diameter  int
	diamBound int
}

// generate builds a workload's graph from its seed with the repo's weight
// convention (UniformWeightsCSR then DistinctWeightsCSR, exactly as
// experiments.ScalePipeline does), so seed 2018 reproduces the shipped
// scale runs.
func generate(build func() *graph.CSR, seed int64, tr *tracer, parent int) (*network, error) {
	id := tr.start("graph.generate", parent, true)
	c := gen.DistinctWeightsCSR(gen.UniformWeightsCSR(build(), xrand.New(seed)))
	tr.set(id, "csr_bytes", float64(c.Bytes()))
	tr.end(id)
	id = tr.start("graph.materialize", parent, true)
	g := c.Graph()
	tr.end(id)
	id = tr.start("graph.diameter", parent, true)
	d := c.DiameterApprox()
	tr.end(id)
	if d < 0 {
		return nil, fmt.Errorf("generated graph is disconnected")
	}
	return &network{c: c, g: g, diameter: d, diamBound: 2*d + 2}, nil
}

func gridCSR(side int) func() *graph.CSR {
	return func() *graph.CSR { return gen.GridCSR(side, side) }
}

func chainCSR(bags, rim int) func() *graph.CSR {
	return func() *graph.CSR { return gen.WheelChainCSR(bags, rim) }
}

// stageNames orders the pipeline's stages; each is a "pipeline.<name>" span.
var stageNames = [...]string{"elect", "bfs", "decompose", "search", "construct", "mst"}

// ledger is one stage's cost in both round ledgers plus engine messages.
type ledger struct {
	Simulated, Charged, Messages int
}

// pipelineRun is everything one elect → MST run decides.
type pipelineRun struct {
	Leader, NumParts, Cap, Quality      int
	DecomposePhases, Guesses, MSTPhases int
	MSTEdges                            []int
	MSTWeight                           float64
	Ledgers                             [len(stageNames)]ledger

	Tree  *graph.Tree
	Parts *partition.Parts
}

func (r *pipelineRun) totals() (simulated, charged int) {
	for _, l := range r.Ledgers {
		simulated += l.Simulated
		charged += l.Charged
	}
	return simulated, charged
}

// runPipeline is the zero-witness pipeline elect → BFS → decompose →
// SearchCap → construct → MST, stage for stage the calls
// experiments.ScalePipeline makes after generation (benchmark_test.go pins
// the two together), in analytic or fully message-level mode. Verification
// is left to the caller, outside the timed section.
func runPipeline(net *network, simulate bool, tr *tracer) (*pipelineRun, error) {
	root := tr.start("pipeline", 0, true)
	defer tr.end(root)
	r := &pipelineRun{}
	g := net.g
	stage := func(i int, f func(id int, l *ledger) error) error {
		id := tr.start("pipeline."+stageNames[i], root, true)
		err := f(id, &r.Ledgers[i])
		l := r.Ledgers[i]
		tr.set(id, "rounds_sim", float64(l.Simulated))
		tr.set(id, "rounds_chg", float64(l.Charged))
		tr.set(id, "messages", float64(l.Messages))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", stageNames[i], err)
		}
		return nil
	}

	if err := stage(0, func(id int, l *ledger) error {
		if !simulate {
			r.Leader = 0 // the election's fixed point: the minimum vertex ID
			l.Charged = net.diamBound + 2
			return nil
		}
		st, err := tracedFlood(tr, id, func(o congest.Options) (congest.Stats, error) {
			leader, st, err := congest.LeaderElectSync(g, net.diamBound, o)
			r.Leader = leader
			return st, err
		})
		l.Simulated, l.Messages = st.Rounds, st.Messages
		return err
	}); err != nil {
		return nil, err
	}

	if err := stage(1, func(id int, l *ledger) error {
		var parent, parentEdge []int
		var err error
		if simulate {
			var st congest.Stats
			st, err = tracedFlood(tr, id, func(o congest.Options) (congest.Stats, error) {
				var st congest.Stats
				var err error
				parent, parentEdge, st, err = congest.DistributedBFSSync(g, r.Leader, net.diamBound, o)
				return st, err
			})
			l.Simulated, l.Messages = st.Rounds, st.Messages
		} else {
			parent, parentEdge, err = congest.CanonicalBFSParents(g, r.Leader)
			l.Charged = net.diamBound + 2
		}
		if err != nil {
			return err
		}
		r.Tree, err = graph.TreeFromParents(g, r.Leader, parent, parentEdge)
		return err
	}); err != nil {
		return nil, err
	}

	// Borůvka fragments down to ~√n parts. As in ScalePipeline, the phase
	// count is probed on the sequential trace (the largest count keeping at
	// least √n fragments) and only the chosen run is priced.
	if err := stage(2, func(id int, l *ledger) error {
		target := 1
		for target*target < g.N() {
			target++
		}
		phases := 1
		for phases < 64 {
			_, probe, err := partition.BoruvkaTrace(g, phases+1)
			if err != nil {
				return err
			}
			if probe.NumParts() < target {
				break
			}
			phases++
		}
		dec, err := congest.BoruvkaDecompose(g, r.Tree, phases, simulate)
		if err != nil {
			return err
		}
		r.Parts, r.NumParts, r.DecomposePhases = dec.Parts, dec.Parts.NumParts(), dec.Phases
		*l = ledger{dec.EffectiveRounds, dec.ChargedRounds, dec.Stats.Messages}
		tr.set(id, "phases", float64(dec.Phases))
		return nil
	}); err != nil {
		return nil, err
	}

	if err := stage(3, func(id int, l *ledger) error {
		sr, err := congest.SearchCap(g, r.Tree, r.Parts, congest.SearchOptions{Simulate: simulate})
		if err != nil {
			return err
		}
		r.Cap, r.Guesses = sr.Cap, sr.Guesses
		*l = ledger{sr.EffectiveRounds, sr.ChargedRounds, sr.Stats.Messages}
		tr.set(id, "guesses", float64(sr.Guesses))
		return nil
	}); err != nil {
		return nil, err
	}

	if err := stage(4, func(id int, l *ledger) error {
		cr, err := congest.ConstructShortcut(g, r.Tree, r.Parts, congest.ConstructOptions{Cap: r.Cap, Simulate: simulate})
		if err != nil {
			return err
		}
		r.Quality = cr.S.Measure().Quality
		*l = ledger{cr.EffectiveRounds, cr.ChargedRounds, cr.Stats.Messages}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := stage(5, func(id int, l *ledger) error {
		provider := tracedProvider(tr, id, mst.FloodProvider(g, r.Tree, r.Cap, simulate))
		run, err := mst.ShortcutBoruvkaOpts(g, provider, mst.Options{Simulate: simulate})
		if err != nil {
			return err
		}
		r.MSTEdges, r.MSTWeight, r.MSTPhases = run.EdgeIDs, run.Weight, run.Phases
		*l = ledger{run.CommRounds, run.ChargedRounds, run.Messages}
		tr.set(id, "phases", float64(run.Phases))
		return nil
	}); err != nil {
		return nil, err
	}
	tr.set(root, "quality", float64(r.Quality))
	tr.set(root, "cap", float64(r.Cap))
	return r, nil
}

// tracedFlood runs one simulated bootstrap flood. Traced, it sits in a
// congest.flood span whose histogram folds the engine's per-round wall-clock
// streamed through Options.OnRound; untraced, the engine gets zero Options.
func tracedFlood(tr *tracer, parent int, run func(congest.Options) (congest.Stats, error)) (congest.Stats, error) {
	if tr == nil {
		return run(congest.Options{})
	}
	id := tr.start("congest.flood", parent, false)
	h := &histogram{}
	last := time.Now()
	st, err := run(congest.Options{OnRound: func(congest.RoundProbe) {
		now := time.Now()
		h.record(now.Sub(last).Nanoseconds())
		last = now
	}})
	tr.foldHist(id, h)
	tr.set(id, "rounds", float64(st.Rounds))
	tr.set(id, "messages", float64(st.Messages))
	tr.end(id)
	return st, err
}

// tracedProvider wraps the MST's shortcut provider so every per-phase
// construction is a shortcut.provide span.
func tracedProvider(tr *tracer, parent int, p mst.Provider) mst.Provider {
	if tr == nil {
		return p
	}
	return func(parts *partition.Parts) (*shortcut.Shortcut, pipeline.Rounds, error) {
		id := tr.start("shortcut.provide", parent, true)
		s, cost, err := p(parts)
		tr.set(id, "parts", float64(parts.NumParts()))
		tr.set(id, "rounds_sim", float64(cost.Simulated))
		tr.set(id, "rounds_chg", float64(cost.Charged))
		tr.end(id)
		return s, cost, err
	}
}

// pipelineWorkload runs the whole pipeline once per loop unit, each time on
// a fresh instance: the topology is fixed and instance u's weights come from
// subSeed(seed, 16+u). The work a pipeline does depends on its weights
// (they decide the fragments, hence the part count and the cap), so a run's
// medians are over many instances rather than over one instance's luck.
type pipelineWorkload struct {
	build    func() *graph.CSR
	simulate bool
}

func (w pipelineWorkload) run(cfg runConfig) (*report, error) {
	rep := &report{}
	tr := cfg.tr
	var net *network
	var last *pipelineRun
	loopStart := time.Now()
	for u := 0; cfg.more(u, loopStart); u++ {
		rep.probe.sample()
		runtime.GC()
		sid := tr.start("setup", 0, true)
		start := time.Now()
		n, err := generate(w.build, subSeed(cfg.seed, int64(16+u)), tr, sid)
		rep.setupNS = append(rep.setupNS, time.Since(start).Nanoseconds())
		tr.end(sid)
		if err != nil {
			return nil, err
		}
		net = n
		vid := tr.start("graph.verify", 0, false)
		wantIDs, wantW := net.c.MST()
		tr.end(vid)

		utr := cfg.unitTracer(u)
		runtime.GC()
		a0 := cfg.allocMark()
		start = time.Now()
		run, err := runPipeline(net, w.simulate, utr)
		ns := time.Since(start).Nanoseconds()
		a1 := cfg.allocMark()
		rep.attempted++
		if err != nil {
			rep.fail("pipeline %d: %v", u, err)
			continue
		}
		rep.book(utr != nil, ns, 1, a1-a0)
		if utr == nil {
			rep.latencyNS = append(rep.latencyNS, ns)
		}

		vid = tr.start("graph.verify", 0, false)
		err = checkPipeline(net, run, wantIDs, wantW, w.simulate)
		tr.end(vid)
		if err != nil {
			rep.fail("pipeline %d: %v", u, err)
			continue
		}
		last = run
	}
	if last != nil {
		sim, chg := last.totals()
		rep.summary = fmt.Sprintf("instances=%d n=%d m=%d; last: diam~%d parts=%d cap=%d quality=%d rounds_sim=%d rounds_chg=%d mst_phases=%d",
			rep.attempted, net.g.N(), net.g.M(), net.diameter, last.NumParts, last.Cap, last.Quality, sim, chg, last.MSTPhases)
	}
	return rep, nil
}

// checkPipeline holds a run to its sequential oracles: the leader is the
// minimum ID, the MST equals CSR Kruskal edge for edge, and a simulated cap
// search picks the cap an analytic SearchCap on the same tree and parts
// picks.
func checkPipeline(net *network, run *pipelineRun, wantIDs []int32, wantW float64, simulate bool) error {
	if run.Leader != 0 {
		return fmt.Errorf("leader %d, want the minimum ID 0", run.Leader)
	}
	if len(run.MSTEdges) != len(wantIDs) || math.Abs(run.MSTWeight-wantW) > 1e-6 {
		return fmt.Errorf("MST has %d edges / weight %g, Kruskal %d / %g", len(run.MSTEdges), run.MSTWeight, len(wantIDs), wantW)
	}
	for i, id := range wantIDs {
		if run.MSTEdges[i] != int(id) {
			return fmt.Errorf("MST edge %d is %d, Kruskal has %d", i, run.MSTEdges[i], id)
		}
	}
	if simulate {
		sr, err := congest.SearchCap(net.g, run.Tree, run.Parts, congest.SearchOptions{})
		if err != nil {
			return fmt.Errorf("analytic cap search: %w", err)
		}
		if sr.Cap != run.Cap {
			return fmt.Errorf("simulated cap %d, analytic SearchCap %d", run.Cap, sr.Cap)
		}
	}
	return nil
}
