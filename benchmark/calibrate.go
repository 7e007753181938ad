package main

import (
	"slices"
	"sync"
	"time"
)

// The box these numbers come from has two speeds. A fixed single-threaded
// kernel reads 4.5 ms or 5.8 ms depending on the second, with /proc/stat
// showing no steal, and stays in one state for 1 to 15 s at a time — so a
// 12 s run's raw median lands on whichever state held longer, and ten runs
// of one binary on one seed spread by up to 25 %. More ops per run do not
// help against a state that outlasts the run.
//
// What does help is pairing every op with a measurement of the box taken at
// the same moment. The speedometer times a kernel of its own — code no
// commit under test can change — right before an op, and the op's wall is
// scaled by nominal ÷ measured kernel time: the wall the op would have had
// with the box in its nominal state. Only walls are scaled; the ratio
// metrics (speedup, the pair ratios) cancel the box by construction and are
// left alone. Raw medians and the median scale factor are printed beside
// the scaled numbers.

// nominalKernelMS is the kernel's wall in the fast state of the two-core
// box the first numbers were committed from. It only fixes the unit: on a
// box where the kernel is twice as fast, every scaled wall reads twice as
// long, and comparisons between commits on that box are unaffected.
const nominalKernelMS = 1.2

const kernelWords = 1 << 14

type speedSample struct {
	at time.Time
	ms float64
}

// speedometer records the box's speed over a run. Safe for concurrent use.
type speedometer struct {
	mu      sync.Mutex
	buf     []uint64
	samples []speedSample
}

func newSpeedometer() *speedometer { return &speedometer{buf: make([]uint64, kernelWords)} }

// kernel fills the buffer from a fixed xorshift stream and sorts it:
// integer arithmetic, branches and cache traffic, no allocation.
func (s *speedometer) kernel() float64 {
	x := uint64(88172645463325252)
	for i := range s.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.buf[i] = x
	}
	start := now()
	slices.Sort(s.buf)
	return msSince(start)
}

// sample times the kernel now: the faster of two runs, so that one run
// losing its core to the scheduler does not read as a slow box.
func (s *speedometer) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := now()
	s.samples = append(s.samples, speedSample{at: at, ms: min(s.kernel(), s.kernel())})
}

// factor returns nominal ÷ measured kernel time at the sample nearest t:
// what a wall measured around t is multiplied by.
func (s *speedometer) factor(t time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	best := s.samples[0]
	for _, c := range s.samples[1:] {
		if c.at.Sub(t).Abs() < best.at.Sub(t).Abs() {
			best = c
		}
	}
	return nominalKernelMS / best.ms
}

// medianFactor is the run's typical scale factor, for the printed report.
func (s *speedometer) medianFactor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	fs := make([]float64, len(s.samples))
	for i, c := range s.samples {
		fs[i] = nominalKernelMS / c.ms
	}
	return median(fs)
}
