package experiments_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func cellFloat(t *testing.T, tbl *experiments.Table, row int, col string) float64 {
	t.Helper()
	s := tbl.Cell(row, col)
	if s == "" {
		t.Fatalf("%s: missing cell row=%d col=%q", tbl.ID, row, col)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell %q not numeric: %v", tbl.ID, s, err)
	}
	return f
}

func TestE2BlocksBounded(t *testing.T) {
	tbl := experiments.E2Treewidth(200, []int{2, 4}, 1)
	for r := range tbl.Rows {
		if tbl.Cell(r, "b<=k+2?") != "true" {
			t.Fatalf("Theorem 5 block bound violated: %s", tbl)
		}
	}
}

func TestE5SlopeAtMostTwo(t *testing.T) {
	tbl := experiments.E5Main([]int{2, 4, 8, 16}, 1)
	// Pointwise, quality must stay within the Õ(d²) shape.
	for r := range tbl.Rows {
		q := cellFloat(t, tbl, r, "quality")
		dd := cellFloat(t, tbl, r, "d*d")
		if q > 2*dd {
			t.Fatalf("row %d: quality %v far exceeds d² = %v", r, q, dd)
		}
	}
	found := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "slope") {
			found = true
			fields := strings.Fields(n)
			for i, f := range fields {
				if f == "diameter:" && i+1 < len(fields) {
					slope, err := strconv.ParseFloat(fields[i+1], 64)
					if err != nil {
						t.Fatal(err)
					}
					if slope > 2.5 {
						t.Fatalf("quality growth exponent %.2f exceeds theorem", slope)
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no slope note")
	}
}

func TestE10FoldingHelpsOnDeepChains(t *testing.T) {
	tbl := experiments.E10FoldingAblation([]int{48}, 1)
	raw := cellFloat(t, tbl, 0, "rawDepth")
	folded := cellFloat(t, tbl, 0, "foldedDepth")
	if folded >= raw {
		t.Fatalf("folding did not reduce depth: %v vs %v", folded, raw)
	}
	cu := cellFloat(t, tbl, 0, "c_unfolded")
	cf := cellFloat(t, tbl, 0, "c_folded")
	if cf > cu {
		t.Fatalf("folded congestion %v worse than unfolded %v", cf, cu)
	}
}

func TestE11ApexAwareBeatsNaive(t *testing.T) {
	tbl := experiments.E11ApexEffect([]int{64}, 1)
	naive := cellFloat(t, tbl, 0, "q_naive(empty)")
	aware := cellFloat(t, tbl, 0, "q_apexAware")
	if aware >= naive {
		t.Fatalf("apex-aware quality %v not better than naive %v", aware, naive)
	}
}

func TestE12AllPlanarized(t *testing.T) {
	tbl := experiments.E12Planarize([]int{0, 1, 2}, 1)
	for r := range tbl.Rows {
		if tbl.Cell(r, "resultGenus") != "0" {
			t.Fatalf("row %d not planarized: %s", r, tbl)
		}
		if tbl.Cell(r, "outerOnOneFace") != "true" {
			t.Fatalf("row %d outer nodes scattered: %s", r, tbl)
		}
	}
}

func TestE7RatiosBounded(t *testing.T) {
	tbl := experiments.E7MinCut([]int{30, 60}, 1)
	for r := range tbl.Rows {
		ratio := cellFloat(t, tbl, r, "ratio")
		if ratio < 1.0-1e-9 {
			t.Fatalf("impossible ratio %v", ratio)
		}
		if ratio > 1.5 {
			t.Fatalf("ratio %v too large", ratio)
		}
	}
}

func TestE8QualityTracksSqrtN(t *testing.T) {
	tbl := experiments.E8LowerBound([]int{6, 12}, 1)
	// Quality must grow with sqrt(n): the larger instance's quality should
	// exceed the smaller's.
	q0 := cellFloat(t, tbl, 0, "quality")
	q1 := cellFloat(t, tbl, 1, "quality")
	if q1 <= q0 {
		t.Fatalf("lower-bound quality did not grow: %v -> %v", q0, q1)
	}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	tables := experiments.All(7, false)
	// Pinned explicitly (not via len(Runners())) so accidentally dropping
	// an experiment from the registry fails here; bump when adding one.
	if len(tables) != 20 {
		t.Fatalf("expected 20 tables, got %d", len(tables))
	}
	seen := map[string]bool{}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", tbl.ID)
		}
		if seen[tbl.ID] {
			t.Fatalf("duplicate table %s", tbl.ID)
		}
		seen[tbl.ID] = true
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Header) {
				t.Fatalf("%s: ragged row %v", tbl.ID, row)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &experiments.Table{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "b"},
	}
	tbl.AddRow(1, 2.5)
	s := tbl.String()
	if !strings.Contains(s, "2.50") || !strings.Contains(s, "=== T") {
		t.Fatalf("rendering wrong: %s", s)
	}
	if tbl.Cell(0, "a") != "1" || tbl.Cell(0, "zzz") != "" || tbl.Cell(9, "a") != "" {
		t.Fatal("Cell lookup wrong")
	}
}
