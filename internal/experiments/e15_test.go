package experiments

import (
	"strconv"
	"testing"
)

// TestE15PipecastAcceptance pins the pipelined communication layer's
// acceptance shape: on every family the measured pipelined convergecast
// stays within the height + k + 1 bound and beats the k-fold sequential
// repetition, both ledgers are reported, and — with the bootstrap and
// block-count sums now running message-level — the simulate-mode cap
// search still selects exactly the analytic mode's cap, with positive
// measured bootstrap rounds.
func TestE15PipecastAcceptance(t *testing.T) {
	tab := E15Pipecast([]int{6, 10}, []int{32}, []int{2, 4, 8}, 2018)
	if len(tab.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(tab.Rows))
	}
	col := func(name string) int {
		for ci, h := range tab.Header {
			if h == name {
				return ci
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	num := func(ri, ci int) int {
		v, err := strconv.Atoi(tab.Rows[ri][ci])
		if err != nil {
			t.Fatalf("row %d: column %q=%q not numeric", ri, tab.Header[ci], tab.Rows[ri][ci])
		}
		return v
	}
	fam, k := col("family"), col("k")
	rPipe, bound, rSeq := col("r_pipe"), col("bound"), col("r_seq")
	chgPipe, chgSeq := col("chg_pipe"), col("chg_seq")
	capSim, capAna, rBoot := col("cap_sim"), col("cap_ana"), col("r_boot")
	seen := map[string]bool{}
	for ri, row := range tab.Rows {
		seen[row[fam]] = true
		if num(ri, rPipe) > num(ri, bound) {
			t.Fatalf("row %d (%s): pipelined rounds %d exceed the height+k+1 bound %d",
				ri, row[fam], num(ri, rPipe), num(ri, bound))
		}
		if num(ri, k) >= 2 && num(ri, rPipe) >= num(ri, rSeq) {
			t.Fatalf("row %d (%s): pipelined %d rounds did not beat sequential %d",
				ri, row[fam], num(ri, rPipe), num(ri, rSeq))
		}
		if num(ri, chgPipe) < 1 || num(ri, chgSeq) < 1 {
			t.Fatalf("row %d (%s): analytic ledger columns not positive", ri, row[fam])
		}
		if num(ri, capSim) != num(ri, capAna) {
			t.Fatalf("row %d (%s): simulate cap %d != analytic cap %d with the measured bootstrap",
				ri, row[fam], num(ri, capSim), num(ri, capAna))
		}
		if num(ri, rBoot) < 1 {
			t.Fatalf("row %d (%s): no measured bootstrap rounds", ri, row[fam])
		}
	}
	for _, f := range []string{"grid", "wheel", "k5free"} {
		if !seen[f] {
			t.Fatalf("family %s missing from the table", f)
		}
	}
}

// TestRunnersRegistry: every table regenerated through the registry keeps
// its declared ID, ByID finds each one, the -big sweeps add rows where a
// table has one and change nothing where it has none, and unknown IDs are
// rejected — the contract behind cmd/allbench's -table and -big flags.
func TestRunnersRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Runners()) {
		t.Fatalf("IDs/Runners length mismatch")
	}
	want := map[string]bool{"E5": true, "E9": true, "E13": true, "E14": true, "E15": true}
	for _, id := range ids {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("registry missing IDs: %v", want)
	}
	tab, ok := ByID("E15", 2018, false)
	if !ok || tab.ID != "E15" {
		t.Fatalf("ByID(E15) = %v, %v", tab, ok)
	}
	for _, id := range []string{"E9", "E13", "E18"} {
		small, ok := ByID(id, 2018, false)
		if !ok {
			t.Fatalf("ByID(%s, small) rejected", id)
		}
		big, ok := ByID(id, 2018, true)
		if !ok || big.ID != id {
			t.Fatalf("ByID(%s, big) = %v, %v", id, big, ok)
		}
		if len(big.Rows) <= len(small.Rows) {
			t.Fatalf("%s: -big sweep has %d rows, default %d", id, len(big.Rows), len(small.Rows))
		}
	}
	small, _ := ByID("E4", 2018, false)
	big, _ := ByID("E4", 2018, true)
	if small.String() != big.String() {
		t.Fatalf("E4 has no larger sweep, but -big changed it:\n%s\nvs\n%s", small, big)
	}
	for _, big := range []bool{false, true} {
		if _, ok := ByID("E99", 2018, big); ok {
			t.Fatalf("ByID accepted an unknown table ID (big=%v)", big)
		}
	}
}
