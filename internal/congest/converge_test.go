package congest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// TestConvergeLoop pins the shared convergence loop: budgets double after
// every retryable failure, Retries counts them only on a non-nil
// adversary, a permanent error returns at once, and exhaustion is an
// *IncompleteError carrying the last budget tried.
func TestConvergeLoop(t *testing.T) {
	// failFirst returns an attempt that fails retryably k times, recording
	// every budget it is offered.
	failFirst := func(k int, budgets *[]int) func(int) error {
		return func(budget int) error {
			*budgets = append(*budgets, budget)
			if len(*budgets) <= k {
				return fmt.Errorf("attempt %d: %w", len(*budgets), ErrAborted)
			}
			return nil
		}
	}
	for _, adv := range []*Adversary{nil, {}} {
		var budgets []int
		if err := adv.converge("Test", 5, failFirst(3, &budgets)); err != nil {
			t.Fatalf("adversary %v: %v", adv, err)
		}
		if want := []int{5, 10, 20, 40}; !slices.Equal(budgets, want) {
			t.Fatalf("adversary %v: budgets %v, want %v", adv, budgets, want)
		}
		if adv != nil && adv.Retries != 3 {
			t.Fatalf("Retries = %d, want 3", adv.Retries)
		}
	}

	permanent := errors.New("malformed input")
	adv := &Adversary{}
	calls := 0
	err := adv.converge("Test", 5, func(int) error { calls++; return permanent })
	if err != permanent || calls != 1 || adv.Retries != 0 {
		t.Fatalf("permanent error: got %v after %d calls, %d retries", err, calls, adv.Retries)
	}

	for _, tc := range []struct {
		adv        *Adversary
		attempts   int
		lastBudget int
	}{
		{nil, 8, 3 << 7},
		{&Adversary{Attempts: 3}, 3, 3 << 2},
	} {
		var budgets []int
		err := tc.adv.converge("Test", 3, failFirst(tc.attempts, &budgets))
		var ie *IncompleteError
		if !errors.As(err, &ie) || ie.Protocol != "Test" || ie.Budget != tc.lastBudget {
			t.Fatalf("exhaustion: got %v, want IncompleteError for Test at budget %d", err, tc.lastBudget)
		}
		if len(budgets) != tc.attempts || budgets[len(budgets)-1] != tc.lastBudget {
			t.Fatalf("exhaustion: budgets %v, want %d attempts ending at %d", budgets, tc.attempts, tc.lastBudget)
		}
		if tc.adv != nil && tc.adv.Retries != tc.attempts {
			t.Fatalf("exhaustion: Retries = %d, want %d", tc.adv.Retries, tc.attempts)
		}
	}
}

// TestRelaxExhaustionIsIncomplete starves the relaxer of rounds: with the
// start budget forced down, eight doublings cannot flood a path of 1200
// vertices, and the failure must be the typed *IncompleteError carrying
// the last budget tried.
func TestRelaxExhaustionIsIncomplete(t *testing.T) {
	g := gen.Path(1200)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	p, err := partition.New(g, [][]int{all})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := graph.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := shortcut.Empty(g, tr, p)
	weights := make([]float64, g.M())
	init := make([]float64, g.N())
	for v := range init {
		init[v] = math.Inf(1)
	}
	init[0] = 0
	relaxer := NewBatchRelaxer(g, p, s)
	relaxer.m = shortcut.Measurement{} // start budget BatchRelaxBudget(m, 1) = 8
	_, err = relaxer.Relax(weights, [][]float64{init})
	var ie *IncompleteError
	if lastBudget := 8 << 7; !errors.As(err, &ie) || ie.Budget != lastBudget || !Retryable(err) {
		t.Fatalf("got %v, want a retryable IncompleteError at budget %d", err, lastBudget)
	}
}
