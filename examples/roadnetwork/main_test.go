package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// golden is main's output with the two wall-clock throughput figures
// masked as <qps>.
const golden = `k=8 sources over the n=600 planar road map:
  batched:      345 charged rounds (one pipelined schedule)
  sequential:  2035 charged rounds (8 independent runs)
  speedup:    5.90x, answers byte-identical per source

oracle answers within (1+0.125) of exact Dijkstra on all 600 targets

Zipf(s=1.3) trace, 50000 queries against the oracle:
  cold: hit rate  98.8%, 0.341 rounds/query, <qps> queries/sec
  warm: hit rate 100.0%, 0.000 rounds/query, <qps> queries/sec

cache holds 599 of 600 sources after 100000 queries; repeat queries are
served locally while each miss pays one batched computation
amortized across its trace window (see experiment E19)
`

var qps = regexp.MustCompile(`[0-9.]+e[+-][0-9]+ queries/sec`)

// TestMainOutput runs the example and compares every line of its output
// to golden. Only the queries/sec figures vary between runs, so only they
// are masked; the example is not an Example function for that reason.
func TestMainOutput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	func() {
		defer func() { os.Stdout = stdout }()
		main()
	}()
	w.Close()
	out := <-read

	if n := len(qps.FindAllString(out, -1)); n != 2 {
		t.Fatalf("%d queries/sec figures in the output, want 2:\n%s", n, out)
	}
	got := strings.Split(qps.ReplaceAllString(out, "<qps> queries/sec"), "\n")
	want := strings.Split(golden, "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var gotLine, wantLine string
		if i < len(got) {
			gotLine = got[i]
		}
		if i < len(want) {
			wantLine = want[i]
		}
		if gotLine != wantLine {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, gotLine, wantLine)
		}
	}
}
