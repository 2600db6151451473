package main

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// On a shared host the speed a run gets changes under it: on a 2-vCPU
// cloud VM whose cores other tenants load, by up to ~45% in phases of
// tens of seconds, which swamps any change a commit makes. So every
// reported time is scaled to a reference host speed: the run times a
// fixed reference computation between short slices of the workload, and
// each slice's times are multiplied by speed = refWorkTime / measured
// reference time. The reference work uses only the standard library, so a
// change to the program cannot move it.

// refWorkTime is how long one refWork.run takes at reference speed. It
// only sets the scale; comparisons between runs need it to stay fixed.
const refWorkTime = 1500 * time.Microsecond

// refWork is a fixed computation shaped like the program's hot paths:
// exp-weighted float math (the kernel), float formatting and parsing (the
// JSON codec), branchy integer work (sorting, tree search) and random
// reads over a few megabytes (pair and neighbour lookups). It does not
// allocate.
type refWork struct {
	floats []float64
	perm   []int
	ints   []int
	text   []byte
	chain  []uint32 // one random cycle through all indices
}

func newRefWork() *refWork {
	rng := rand.New(rand.NewSource(1))
	w := &refWork{floats: make([]float64, 4096), perm: rng.Perm(8192), ints: make([]int, 8192), text: make([]byte, 0, 32)}
	for i := range w.floats {
		w.floats[i] = rng.NormFloat64()
	}
	order := rng.Perm(1 << 20)
	w.chain = make([]uint32, len(order))
	for i, j := range order {
		w.chain[j] = uint32(order[(i+1)%len(order)])
	}
	return w
}

var refSink float64

func (w *refWork) run() {
	var acc float64
	for i, x := range w.floats {
		acc += math.Exp(-x*x) * float64(i&7)
	}
	for _, x := range w.floats[:1024] {
		w.text = strconv.AppendFloat(w.text[:0], x, 'g', -1, 64)
		v, _ := strconv.ParseFloat(unsafe.String(&w.text[0], len(w.text)), 64)
		acc += v
	}
	copy(w.ints, w.perm)
	slices.Sort(w.ints)
	acc += float64(w.ints[7])
	p := uint32(0)
	for i := 0; i < 1<<14; i++ {
		p = w.chain[p]
	}
	acc += float64(p)
	refSink += acc
}

// calibrator measures the host's current speed on as many goroutines as
// the workload keeps busy.
type calibrator struct {
	work []*refWork
}

func newCalibrator() *calibrator {
	c := &calibrator{work: make([]*refWork, clients)}
	for i := range c.work {
		c.work[i] = newRefWork()
	}
	return c
}

// speed returns the host speed relative to the reference host (0.7 =
// 30% slower): the best of three timings, so a garbage-collection cycle
// that lands on one of them does not count.
func (c *calibrator) speed() float64 {
	const reps = 3 // runs per goroutine per timing
	best := 0.0
	for t := 0; t < 3; t++ {
		var wg sync.WaitGroup
		took := make([]time.Duration, len(c.work))
		for i, w := range c.work {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				for r := 0; r < reps; r++ {
					w.run()
				}
				took[i] = time.Since(t0) / reps
			}()
		}
		wg.Wait()
		var sum time.Duration
		for _, d := range took {
			sum += d
		}
		best = max(best, float64(refWorkTime)/float64(sum/time.Duration(len(took))))
	}
	return best
}

// scaled multiplies d by speed: the time d would have taken at reference
// speed.
func scaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed)
}
