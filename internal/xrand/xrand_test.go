package xrand_test

import (
	"testing"

	"repro/internal/xrand"
)

func TestDeterminism(t *testing.T) {
	a, b := xrand.New(7), xrand.New(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
	c := xrand.New(8)
	same := true
	a2 := xrand.New(7)
	for i := 0; i < 10; i++ {
		if a2.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
