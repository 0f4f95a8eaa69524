package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one traced call into the system. Spans are kept in memory and
// written as JSONL when the run ends; the per-layer metrics are derived from
// them (see layers.go). Parent 0 marks a root span.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs"`
	// Hist folds per-call latencies that are too many for spans of their
	// own (cache hits, engine rounds) as sparse [bucket lower bound ns,
	// count] pairs.
	Hist [][2]int64 `json:"hist,omitempty"`

	hist   *histogram
	alloc0 uint64
	allocs bool
}

func (s *span) durNS() int64 { return s.EndNS - s.StartNS }

// tracer records spans. A nil *tracer is the untraced run: every method is a
// no-op, so the measured calls are identical with tracing on or off.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent and returns its ID. With allocs set the
// span records the bytes allocated while it was open (attr alloc_bytes),
// read with runtime.ReadMemStats at both ends; that call stops the world, so
// spans opened thousands of times a second (query windows) leave it off.
func (t *tracer) start(name string, parent int, allocs bool) int {
	if t == nil {
		return 0
	}
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Attrs: map[string]float64{}, allocs: allocs}
	if allocs {
		s.alloc0 = totalAlloc()
	}
	s.StartNS = time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	if s.allocs {
		s.Attrs["alloc_bytes"] = float64(totalAlloc() - s.alloc0)
	}
	if s.hist != nil {
		s.Hist = s.hist.sparse()
		s.Attrs["hist_max_ns"] = float64(s.hist.max)
		s.hist = nil
	}
}

func (t *tracer) set(id int, key string, v float64) {
	if t != nil {
		t.spans[id-1].Attrs[key] = v
	}
}

// foldHist attaches h to the span; it is stored sparsely when the span ends.
func (t *tracer) foldHist(id int, h *histogram) {
	if t != nil {
		t.spans[id-1].hist = h
	}
}

// write stores the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing span %d: %w", i+1, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// histogram is a fixed-bucket log-linear histogram of nanosecond values:
// exact below 32 ns, then 16 buckets per power of two (≤ 6.25% wide).
type histogram struct {
	counts [histBuckets]int64
	n      int64
	max    int64
}

const histBuckets = 16*40 + 32

func histBucket(v int64) int {
	if v < 32 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 5
	b := 16*shift + int(v>>shift)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func histLower(b int) int64 {
	if b < 32 {
		return int64(b)
	}
	shift := b/16 - 1
	return int64(b-16*shift) << shift
}

func (h *histogram) record(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// addSparse merges a span's stored buckets. Their maximum is not stored, so
// max becomes the highest bucket's lower bound.
func (h *histogram) addSparse(bins [][2]int64) {
	for _, b := range bins {
		i := histBucket(b[0])
		h.counts[i] += b[1]
		h.n += b[1]
		if b[0] > h.max {
			h.max = b[0]
		}
	}
}

func (h *histogram) sparse() [][2]int64 {
	var out [][2]int64
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, [2]int64{histLower(i), c})
		}
	}
	return out
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n-1)) + 1
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := histLower(i)
			return float64(lo+histLower(i+1)) / 2
		}
	}
	return float64(h.max)
}
