package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The benchmark's host is a share of a machine whose speed for the same work
// moves by up to 1.7x over minutes and flickers faster than that, so the
// raw time of a 30-second run says as much about the neighbours as about the
// program. Every timed segment of an untraced run is therefore bracketed by
// blocks of a fixed reference kernel, run with the program idle, and its time
// is reported as time on a nominal host: the raw time scaled by calibNominal
// over the mean of the kernel blocks before and after the segment. The kernel
// is the benchmark's own code, so no change to the program moves it.
const (
	// calibSize and calibReps make one kernel block: calibReps passes of a
	// calibSize x calibSize matrix-vector product with a logistic squash,
	// the dense float work LSTM inference and training spend their time on.
	calibSize = 96
	calibReps = 4000
	// calibNominal is the nominal host's time for one kernel block, near its
	// median on the 2-vCPU Xeon VM the first baseline was measured on, so
	// scaled times read close to that host's raw times.
	calibNominal = 50 * time.Millisecond
)

// hostClock times kernel blocks on every worker at once and turns segment
// times into nominal-host times.
type hostClock struct {
	bufs []calibBuf
	// last is the most recent block's time: the block before the next
	// segment.
	last time.Duration
	// blocksMS and factors record every block and every segment's scale
	// factor, for the run's notes.
	blocksMS, factors []float64
}

// calibBuf is one worker's kernel state, allocated once so that calibration
// adds nothing to the allocation a run measures.
type calibBuf struct {
	w, x, y []float64
	sink    float64
}

func newHostClock(workers int) *hostClock {
	h := &hostClock{bufs: make([]calibBuf, max(1, workers))}
	for i := range h.bufs {
		b := &h.bufs[i]
		b.w = make([]float64, calibSize*calibSize)
		b.x = make([]float64, calibSize)
		b.y = make([]float64, calibSize)
		for j := range b.w {
			b.w[j] = math.Sin(float64(j)) / calibSize
		}
	}
	h.restart()
	return h
}

// restart times a fresh block to open the next segment, after untimed work.
func (h *hostClock) restart() { h.last = h.block() }

// scale closes a segment: it times the block after it and returns the factor
// that turns the segment's raw time into nominal-host time.
func (h *hostClock) scale() float64 {
	next := h.block()
	f := 2 * float64(calibNominal) / float64(h.last+next)
	h.last = next
	h.factors = append(h.factors, f)
	return f
}

// block collects the program's garbage first, so that no GC cycle runs
// alongside the kernel, then runs one kernel block on every worker at once
// and returns the workers' mean time.
func (h *hostClock) block() time.Duration {
	runtime.GC()
	durs := make([]time.Duration, len(h.bufs))
	var wg sync.WaitGroup
	for i := range h.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			h.bufs[i].run(calibReps)
			durs[i] = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	mean := sum / time.Duration(len(durs))
	h.blocksMS = append(h.blocksMS, ms(mean))
	return mean
}

func (b *calibBuf) run(reps int) {
	for i := range b.x {
		b.x[i] = float64(i) / calibSize
	}
	x, y := b.x, b.y
	for r := 0; r < reps; r++ {
		for i := range y {
			s := 0.0
			for j, v := range b.w[i*calibSize : (i+1)*calibSize] {
				s += v * x[j]
			}
			y[i] = 1 / (1 + math.Exp(-s))
		}
		x, y = y, x
	}
	b.sink += x[0]
}
