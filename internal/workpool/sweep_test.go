package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"parroute/internal/rng"
)

// sweepCase is one random op set: hulls over [0, axis) and a visit order.
type sweepCase struct {
	axis  int
	hulls []Hull
	order []int // nil: identity
}

// randomSweep draws n ops. shape picks the hull mix: 0 unit hulls, 1 hulls of
// length 1–3 (the wire sweeps), 2 a tenth of the hulls long enough to span
// several seams (the flip sweep), 3 every op inside one narrow index range,
// so all but one band are empty.
func randomSweep(r *rng.RNG, n, axis, shape int) sweepCase {
	c := sweepCase{axis: axis, hulls: make([]Hull, n)}
	for i := range c.hulls {
		lo, length := r.Intn(axis), 1
		switch shape {
		case 1:
			length = 1 + r.Intn(3)
		case 2:
			length = 2 + r.Intn(3)
			if r.Intn(10) == 0 {
				length = 1 + r.Intn(axis)
			}
		case 3:
			lo = min(axis/2+r.Intn(2), axis-1)
		}
		c.hulls[i] = Hull{Lo: int32(lo), Hi: int32(min(lo+length, axis) - 1)}
	}
	if r.Intn(4) > 0 {
		c.order = r.Perm(n)
	}
	return c
}

// logs runs the case at the given worker count with a do that appends the op
// to the log of every index in its hull — unsynchronised, so -race sees any
// pair of conflicting ops the sweep failed to order — and returns the logs.
func (c sweepCase) logs(t *testing.T, workers int) ([][]int32, *Sweep) {
	t.Helper()
	reserved := false
	sw, err := NewSweep(context.Background(), workers, len(c.hulls), c.axis,
		func(op int) Hull { return c.hulls[op] },
		func(lo, hi int) { reserved = lo >= 0 && hi < c.axis && lo <= hi })
	if err != nil {
		t.Fatal(err)
	}
	if (sw.Bands() > 1) != reserved {
		t.Fatalf("workers=%d: %d bands, reserve called with a valid range: %v", workers, sw.Bands(), reserved)
	}
	logs := make([][]int32, c.axis)
	err = sw.Run(context.Background(), c.order, func(band, op int) error {
		if band < 0 || band >= sw.Bands() {
			return fmt.Errorf("band %d of %d", band, sw.Bands())
		}
		for idx := c.hulls[op].Lo; idx <= c.hulls[op].Hi; idx++ {
			logs[idx] = append(logs[idx], int32(op))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return logs, sw
}

// TestSweepMatchesSerialOrder is the executor's contract: whatever the band
// count, every index sees the ops that touch it in the visit order.
func TestSweepMatchesSerialOrder(t *testing.T) {
	defer SetMinBandOpsForTest(64)()
	r := rng.New(18)
	multi := 0
	for trial := 0; trial < 40; trial++ {
		n := []int{0, 1, minBandOps - 1, 2 * minBandOps, 3*minBandOps + 17, 9 * minBandOps, 20 * minBandOps}[trial%7]
		axis := []int{1, 2, 5, 37, 181}[trial%5]
		c := randomSweep(r, n, axis, trial%4)
		want, one := c.logs(t, 1)
		if one.Bands() != 1 {
			t.Fatalf("workers=1 planned %d bands", one.Bands())
		}
		for _, workers := range []int{2, 3, 8, n + 1} {
			got, sw := c.logs(t, workers)
			if sw.Bands() > 1 {
				multi++
			}
			for idx := range want {
				if !slices.Equal(got[idx], want[idx]) {
					t.Fatalf("trial %d (n=%d axis=%d shape=%d) workers=%d bands=%d: index %d saw %d ops in an order that is not the serial one",
						trial, n, axis, trial%4, workers, sw.Bands(), idx, len(got[idx]))
				}
			}
		}
	}
	if multi < 40 {
		t.Fatalf("only %d runs had more than one band: the test no longer exercises the seams", multi)
	}
}

// TestSweepOnOneP runs eight bands on a single P: a wait that only ends when
// the peer owns a core hangs here and nowhere else, so the run sits inside
// a watchdog.
func TestSweepOnOneP(t *testing.T) {
	defer SetMinBandOpsForTest(64)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := randomSweep(rng.New(1), 16*minBandOps, 64, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		want, _ := c.logs(t, 1)
		got, sw := c.logs(t, 8)
		if sw.Bands() != 8 {
			t.Errorf("planned %d bands, want 8", sw.Bands())
		}
		for idx := range want {
			if !slices.Equal(got[idx], want[idx]) {
				t.Errorf("index %d: order differs from serial", idx)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("eight bands on one P did not finish: a waiter is not yielding")
	}
}

// TestSweepAbortReleasesWaiters ends a sweep from inside, by cancellation
// and by a failing do, at one band and at many: Run must return the cause
// within the watchdog and every goroutine must be gone — one left waiting
// at a seam would hold Run (it joins them) forever.
func TestSweepAbortReleasesWaiters(t *testing.T) {
	defer SetMinBandOpsForTest(64)()
	c := randomSweep(rng.New(2), 4*4096, 64, 2) // ctx is looked at every 4096 ops
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		for _, cause := range []error{context.Canceled, boom} {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			sw, err := NewSweep(ctx, workers, len(c.hulls), c.axis,
				func(op int) Hull { return c.hulls[op] }, func(int, int) {})
			if err != nil {
				t.Fatal(err)
			}
			var ran atomic.Int32
			done := make(chan error, 1)
			go func() {
				done <- sw.Run(ctx, c.order, func(_, op int) error {
					if ran.Add(1) == int32(len(c.hulls)/3) {
						if cause == boom {
							return fmt.Errorf("op %d: %w", op, boom)
						}
						cancel()
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, cause) {
					t.Fatalf("workers=%d: err = %v, want %v", workers, err, cause)
				}
			case <-time.After(time.Minute):
				t.Fatalf("workers=%d, %v: Run did not return", workers, cause)
			}
			cancel()
			if n := int(ran.Load()); n >= len(c.hulls) {
				t.Fatalf("workers=%d, %v: all %d ops ran", workers, cause, n)
			}
			waitForGoroutines(t, before)
		}
	}
}
