package main

import (
	"runtime"
	"sync"
	"time"
)

// hostProbe measures how fast the host runs right now, with a fixed kernel
// that touches nothing of the system under test. The benchmark's host is a
// shared 2-vCPU machine whose speed moves by up to 40% within an hour, and it
// moves every workload's timings together (see README.md, Calibration).
// Timing the kernel before every loop unit and scaling the end-to-end
// timings by refProbeNS ÷ the run's median probe takes most of that swing out
// of them; a change to the system cannot move the kernel.
//
// The kernel has three parts, run on GOMAXPROCS goroutines at once, as the
// engine and the serving loop are: an integer multiply-xorshift loop, a
// dependent walk over a random cycle in 128 KB (cache latency), and lookups in
// a 32K-entry map (the shape of the serving hit path). Each part is timed
// three times and keeps its fastest time; the sample is the sum of the three.
type hostProbe struct {
	samples []int64
}

// refProbeNS is a probe sample on the calibration machine in its usual
// state, so scaled timings read as raw timings on that machine.
const refProbeNS = 14e6

const (
	probeCycle = 1 << 15 // uint32 entries in the walked cycle: 128 KB
	probeKeys  = 1 << 15 // map entries
	probeReps  = 3
)

// sample takes one probe. It runs after a GC and allocates its tables
// afresh, so they live only while the heap is at its smallest and never add
// to the run's peak RSS; the caller's next GC frees them.
func (p *hostProbe) sample() {
	runtime.GC()
	next := probeWalk()
	table := make(map[int32]int32, probeKeys)
	for i := int32(0); i < probeKeys; i++ {
		table[i*7919] = i
	}
	parts := [...]func() uint64{
		func() uint64 {
			x := uint64(88172645463325252)
			for i := 0; i < 1_000_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				x *= 0x2545F4914F6CDD1D
			}
			return x
		},
		func() uint64 {
			j := uint32(0)
			for i := 0; i < 1_000_000; i++ {
				j = next[j]
			}
			return uint64(j)
		},
		func() uint64 {
			var s int64
			k := int32(1)
			for i := 0; i < 300_000; i++ {
				k = k*1103515245 + 12345
				s += int64(table[(k&(probeKeys-1))*7919])
			}
			return uint64(s)
		},
	}
	var total int64
	for _, f := range parts {
		best := int64(-1)
		for r := 0; r < probeReps; r++ {
			if ns := onEveryProc(f); best < 0 || ns < best {
				best = ns
			}
		}
		total += best
	}
	p.samples = append(p.samples, total)
}

// scale is the factor that turns the run's timings into reference-machine
// timings: refProbeNS ÷ the median sample. A time is multiplied by it, a rate
// divided.
func (p *hostProbe) scale() float64 {
	m := medianNS(p.samples)
	if m == 0 {
		return 1
	}
	return refProbeNS / m
}

var probeSink uint64

// onEveryProc runs f on GOMAXPROCS goroutines at once and returns the
// wall-clock until the last one finishes.
func onEveryProc(f func() uint64) int64 {
	procs := runtime.GOMAXPROCS(0)
	out := make([]uint64, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[k] = f()
		}()
	}
	wg.Wait()
	ns := time.Since(start).Nanoseconds()
	for _, v := range out {
		probeSink += v
	}
	return ns
}

// probeWalk returns a single random cycle over probeCycle slots as a
// successor table, so walking it defeats the prefetcher.
func probeWalk() []uint32 {
	perm := make([]uint32, probeCycle)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(1)
	for i := probeCycle - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	next := make([]uint32, probeCycle)
	for i, v := range perm {
		next[v] = perm[(i+1)%probeCycle]
	}
	return next
}
