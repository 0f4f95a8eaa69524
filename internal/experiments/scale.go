package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/xrand"
)

// ScaleMode selects how much of the zero-witness pipeline runs message-level
// on the CONGEST engine.
type ScaleMode string

const (
	// ScaleAnalytic computes every fixed point sequentially and books the
	// framework's analytic round charges — the only mode whose wall-clock is
	// independent of the graph's diameter, and therefore the one that carries
	// a 10⁶-node grid (whose Θ(D) setup floods alone are ~4000 engine rounds
	// over 10⁶ nodes).
	ScaleAnalytic ScaleMode = "analytic"
	// ScaleHybrid simulates the bootstrap floods (election + BFS) message-
	// level on the round-driven engine — the stages whose per-round
	// wall-clock and bytes the measurement layer wants — and prices the
	// downstream stages analytically.
	ScaleHybrid ScaleMode = "hybrid"
	// ScaleSimulate runs every stage message-level. The cap search
	// pipelines one token per fragment, so this mode is for experiment
	// sizes, not scale runs.
	ScaleSimulate ScaleMode = "simulate"
)

// ScaleStage is one timed stage of the pipeline run: wall-clock plus the
// stage's two-ledger round cost and, for simulated stages, the engine's
// traffic figures streamed through Options.OnRound (never O(n·rounds)
// retained state — two counters and two maxima per stage).
type ScaleStage struct {
	Name      string
	WallNS    int64
	Simulated int // engine-measured rounds
	Charged   int // analytic-ledger rounds
	Messages  int
	Bits      int64
	// MaxRoundBits / MaxRoundNS are the busiest single round observed by the
	// per-round probe (simulated stages only).
	MaxRoundBits int
	MaxRoundNS   int64
}

// ScaleResult is a full zero-witness pipeline run at scale: generate →
// elect → BFS → decompose → cap search → construct → MST, each stage timed,
// with the MST validated edge-for-edge against the CSR Kruskal oracle.
type ScaleResult struct {
	Family     string
	Mode       ScaleMode
	N, M       int
	Diameter   int   // double-sweep estimate (the bound the protocols use)
	GraphBytes int64 // CSR slab footprint
	Leader     int
	Parts      int // fragments handed to the cap search
	Cap        int // winning congestion cap
	Quality    int // measured quality of the constructed shortcut
	MSTPhases  int
	MSTWeight  float64
	MSTEdges   int
	Stages     []ScaleStage
}

// Totals folds the per-stage figures: wall-clock and the two round ledgers.
func (r *ScaleResult) Totals() (wallNS int64, simulated, charged int) {
	for _, s := range r.Stages {
		wallNS += s.WallNS
		simulated += s.Simulated
		charged += s.Charged
	}
	return wallNS, simulated, charged
}

// String renders the run as the per-stage table the scale harness prints.
func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "family=%s mode=%s n=%d m=%d diam~%d csr=%.1fMB parts=%d cap=%d quality=%d mst_edges=%d mst_phases=%d\n",
		r.Family, r.Mode, r.N, r.M, r.Diameter, float64(r.GraphBytes)/(1<<20), r.Parts, r.Cap, r.Quality, r.MSTEdges, r.MSTPhases)
	fmt.Fprintf(&b, "%-10s %12s %10s %10s %12s %14s %14s %12s\n",
		"stage", "wall_ms", "r_sim", "r_chg", "messages", "bytes", "maxround_B", "maxround_ms")
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "%-10s %12.2f %10d %10d %12d %14d %14d %12.2f\n",
			s.Name, float64(s.WallNS)/1e6, s.Simulated, s.Charged, s.Messages, s.Bits/8, s.MaxRoundBits/8, float64(s.MaxRoundNS)/1e6)
	}
	wall, sim, chg := r.Totals()
	fmt.Fprintf(&b, "%-10s %12.2f %10d %10d\n", "total", float64(wall)/1e6, sim, chg)
	return b.String()
}

// roundMeter folds engine RoundProbes into a stage: O(1) state however many
// rounds stream through.
type roundMeter struct {
	stage *ScaleStage
	last  time.Time
}

func (m *roundMeter) probe(p congest.RoundProbe) {
	now := time.Now() //lint:allow seededrand wall-clock round timing feeds the reported MaxRoundNS metric only; no algorithmic decision depends on it
	if !m.last.IsZero() {
		if d := now.Sub(m.last).Nanoseconds(); d > m.stage.MaxRoundNS {
			m.stage.MaxRoundNS = d
		}
	}
	m.last = now
	m.stage.Messages += p.Messages
	m.stage.Bits += int64(p.Bits)
	if p.Bits > m.stage.MaxRoundBits {
		m.stage.MaxRoundBits = p.Bits
	}
}

// scaleCSR builds the family's graph CSR-direct. Families are the scale
// trio: square grid (Θ(√n) diameter), wheel (diameter 2, maximal hub
// degree), and the wheel-chain (bounded degree, diameter ≈ bags). Edges
// get uniform random weights (repo convention: UniformWeights +
// DistinctWeights, deterministic seed) — under unit weights, Borůvka's
// lowest-ID tie-break selects one connected edge set per family and
// collapses every fragment in a single phase, which would degenerate the
// decompose and cap-search stages.
func scaleCSR(family string, n int) (*graph.CSR, error) {
	var c *graph.CSR
	switch family {
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		c = gen.GridCSR(side, side)
	case "wheel":
		c = gen.WheelCSR(n)
	case "chain":
		const rim = 31
		bags := n / (rim + 1)
		if bags < 2 {
			bags = 2
		}
		c = gen.WheelChainCSR(bags, rim)
	default:
		return nil, fmt.Errorf("experiments: unknown scale family %q", family)
	}
	return gen.DistinctWeightsCSR(gen.UniformWeightsCSR(c, xrand.New(2018))), nil
}

// ScalePipeline runs the full zero-witness pipeline on one scale family:
// CSR-direct generation, leader election, distributed BFS, in-network
// Borůvka decomposition to ~√n fragments, the O(log n) doubling cap search,
// one flooding construction at the winning cap, and the shortcut Borůvka
// MST (validated against the CSR Kruskal oracle). Every stage is timed and
// its rounds booked into the ledger matching the mode; simulated stages
// additionally stream per-round traffic through the engine probe.
func ScalePipeline(family string, n int, mode ScaleMode) (*ScaleResult, error) {
	switch mode {
	case ScaleAnalytic, ScaleHybrid, ScaleSimulate:
	default:
		return nil, fmt.Errorf("experiments: unknown scale mode %q", mode)
	}
	res := &ScaleResult{Family: family, Mode: mode}
	stage := func(name string, f func(s *ScaleStage) error) error {
		s := ScaleStage{Name: name}
		start := time.Now() //lint:allow seededrand per-stage wall-clock is the harness's reported metric; no algorithmic decision depends on it
		err := f(&s)
		s.WallNS = time.Since(start).Nanoseconds() //lint:allow seededrand per-stage wall-clock is the harness's reported metric; no algorithmic decision depends on it
		res.Stages = append(res.Stages, s)
		return err
	}
	simSetup := mode != ScaleAnalytic // elect + BFS on the engine
	simDeep := mode == ScaleSimulate  // decompose / search / construct / MST on the engine

	// generate: CSR slabs, the engine-facing adjacency, and the double-sweep
	// diameter estimate every protocol's bound derives from.
	var g *graph.Graph
	var diamBound int
	if err := stage("generate", func(*ScaleStage) error {
		c, err := scaleCSR(family, n)
		if err != nil {
			return err
		}
		res.N, res.M, res.GraphBytes = c.N(), c.M(), int64(c.Bytes())
		res.Diameter = c.DiameterApprox()
		if res.Diameter < 0 {
			return fmt.Errorf("experiments: scale family %q generated a disconnected graph", family)
		}
		diamBound = 2*res.Diameter + 2
		g = c.Graph()
		return nil
	}); err != nil {
		return nil, err
	}

	// elect: minimum-ID flood. The charged form is the SelfSetup convention
	// (diamBound+2 per bootstrap flood).
	if err := stage("elect", func(s *ScaleStage) error {
		if !simSetup {
			res.Leader = 0 // the election's fixed point: the minimum vertex ID
			s.Charged = diamBound + 2
			return nil
		}
		m := roundMeter{stage: s}
		leader, stats, err := congest.LeaderElectSync(g, diamBound, congest.Options{OnRound: m.probe})
		if err != nil {
			return err
		}
		res.Leader = leader
		s.Simulated = stats.Rounds
		return nil
	}); err != nil {
		return nil, err
	}

	// bfs: the canonical lowest-port tree rooted at the leader.
	var tree *graph.Tree
	if err := stage("bfs", func(s *ScaleStage) error {
		var parent, parentEdge []int
		var err error
		if simSetup {
			m := roundMeter{stage: s}
			var stats congest.Stats
			parent, parentEdge, stats, err = congest.DistributedBFSSync(g, res.Leader, diamBound, congest.Options{OnRound: m.probe})
			s.Simulated = stats.Rounds
		} else {
			parent, parentEdge, err = congest.CanonicalBFSParents(g, res.Leader)
			s.Charged = diamBound + 2
		}
		if err != nil {
			return err
		}
		tree, err = graph.TreeFromParents(g, res.Leader, parent, parentEdge)
		return err
	}); err != nil {
		return nil, err
	}

	// decompose: Borůvka fragments down to ~√n parts — the family the cap
	// search prices shortcuts for. Fragment counts can collapse much faster
	// than the per-phase halving guarantee (unit weights merge in long
	// chains), so the phase count is chosen by probing the sequential trace:
	// the largest count that keeps at least √n fragments. The probe is the
	// environment's free sequential computation, one trace read phase by
	// phase; only the chosen run is priced.
	var parts *partition.Parts
	if err := stage("decompose", func(s *ScaleStage) error {
		target := 1
		for target*target < res.N {
			target++
		}
		trace, final, err := partition.BoruvkaTrace(g, 64)
		if err != nil {
			return err
		}
		// fragsAfter(p) is the fragment count after p phases.
		fragsAfter := func(p int) int {
			if p < len(trace) {
				return trace[p].NumFrags
			}
			return final.NumParts()
		}
		phases := 1
		for phases < 64 && fragsAfter(phases+1) >= target {
			phases++
		}
		dec, err := congest.BoruvkaDecompose(g, tree, phases, simDeep)
		if err != nil {
			return err
		}
		parts = dec.Parts
		res.Parts = dec.Parts.NumParts()
		s.Simulated = dec.EffectiveRounds
		s.Charged = dec.ChargedRounds
		s.Messages = dec.Stats.Messages
		s.Bits = int64(dec.Stats.TotalBits)
		return nil
	}); err != nil {
		return nil, err
	}

	// search: the in-network O(log n) doubling cap search over the fragments.
	var cap int
	if err := stage("search", func(s *ScaleStage) error {
		sr, err := congest.SearchCap(g, tree, parts, congest.SearchOptions{Simulate: simDeep})
		if err != nil {
			return err
		}
		cap = sr.Cap
		res.Cap = cap
		s.Simulated = sr.EffectiveRounds
		s.Charged = sr.ChargedRounds
		s.Messages = sr.Stats.Messages
		s.Bits = int64(sr.Stats.TotalBits)
		return nil
	}); err != nil {
		return nil, err
	}

	// construct: one flooding construction at the winning cap — the
	// per-family build the MST's provider then repeats phase by phase.
	if err := stage("construct", func(s *ScaleStage) error {
		cr, err := congest.ConstructShortcut(g, tree, parts, congest.ConstructOptions{Cap: cap, Simulate: simDeep})
		if err != nil {
			return err
		}
		res.Quality = cr.S.Measure().Quality
		s.Simulated = cr.EffectiveRounds
		s.Charged = cr.ChargedRounds
		s.Messages = cr.Stats.Messages
		s.Bits = int64(cr.Stats.TotalBits)
		return nil
	}); err != nil {
		return nil, err
	}

	// mst: shortcut Borůvka over the flooding provider at the found cap,
	// validated edge-for-edge against the CSR Kruskal oracle.
	if err := stage("mst", func(s *ScaleStage) error {
		provider := mst.FloodProvider(g, tree, cap, simDeep)
		run, err := mst.ShortcutBoruvkaOpts(g, provider, mst.Options{Simulate: simDeep})
		if err != nil {
			return err
		}
		s.Simulated = run.CommRounds
		s.Charged = run.ChargedRounds
		s.Messages = run.Messages
		res.MSTPhases = run.Phases
		res.MSTWeight = run.Weight
		res.MSTEdges = len(run.EdgeIDs)
		c := graph.NewCSR(g)
		wantIDs, wantW := c.MST()
		if len(wantIDs) != len(run.EdgeIDs) || math.Abs(wantW-run.Weight) > 1e-6 {
			return fmt.Errorf("experiments: scale MST mismatch: %d edges / weight %g vs oracle %d / %g",
				len(run.EdgeIDs), run.Weight, len(wantIDs), wantW)
		}
		for i := range wantIDs {
			if run.EdgeIDs[i] != int(wantIDs[i]) {
				return fmt.Errorf("experiments: scale MST edge %d: got ID %d, oracle %d", i, run.EdgeIDs[i], wantIDs[i])
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}
